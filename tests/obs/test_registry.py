"""Unit tests for the metrics registry and its two exporters."""

import pytest

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestAccessors:
    def test_counter_is_idempotent_per_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", op="add")
        b = registry.counter("repro_x_total", op="add")
        c = registry.counter("repro_x_total", op="remove")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3.0
        assert c.value == 0.0

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("repro_x_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("repro_x_total")

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=(5.0, 1.0))


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram("repro_h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(106.2)
        assert histogram.cumulative_buckets() == [
            (1.0, 2),
            (10.0, 3),
            (float("inf"), 4),
        ]

    def test_boundary_value_is_inclusive(self):
        histogram = MetricsRegistry().histogram("repro_h", buckets=(1.0, 10.0))
        histogram.observe(1.0)
        assert histogram.cumulative_buckets()[0] == (1.0, 1)

    def test_to_dict_shape(self):
        histogram = MetricsRegistry().histogram("repro_h", buckets=(1.0,))
        histogram.observe(0.5)
        payload = histogram.to_dict()
        assert payload["count"] == 1
        assert payload["mean"] == pytest.approx(0.5)
        assert payload["buckets"] == {"le_1": 1, "le_inf": 1}


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter(
            "repro_runs_total", help="Detection runs.", engine="parallel"
        ).inc(2)
        registry.gauge("repro_uptime_seconds").set(1.5)
        registry.histogram(
            "repro_wall_ms", buckets=(1.0, 10.0), endpoint="result"
        ).observe(3.0)
        return registry

    def test_to_dict_groups_series_by_name(self):
        payload = self._populated().to_dict()
        assert payload["repro_runs_total"]["kind"] == "counter"
        assert payload["repro_runs_total"]["help"] == "Detection runs."
        series = payload["repro_runs_total"]["series"]
        assert series == [{"labels": {"engine": "parallel"}, "value": 2.0}]
        histogram_series = payload["repro_wall_ms"]["series"][0]
        assert histogram_series["labels"] == {"endpoint": "result"}
        assert histogram_series["count"] == 1

    def test_prometheus_exposition_format(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_runs_total Detection runs." in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{engine="parallel"} 2' in text
        assert "repro_uptime_seconds 1.5" in text
        assert 'repro_wall_ms_bucket{endpoint="result",le="1"} 0' in text
        assert 'repro_wall_ms_bucket{endpoint="result",le="10"} 1' in text
        assert 'repro_wall_ms_bucket{endpoint="result",le="+Inf"} 1' in text
        assert 'repro_wall_ms_sum{endpoint="result"} 3' in text
        assert 'repro_wall_ms_count{endpoint="result"} 1' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", endpoint='we"ird\n').inc()
        text = registry.render_prometheus()
        assert 'endpoint="we\\"ird\\n"' in text


class TestProcessRegistry:
    def test_swap_and_restore(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
