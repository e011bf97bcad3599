"""Unit tests for the span tracer (nesting, attributes, exporters)."""

import json

import pytest

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, SpanRecord, Tracer


class TestNullObjects:
    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_null_tracer_always_answers_the_shared_span(self):
        span = NULL_TRACER.span("anything")
        assert span is NULL_SPAN
        with span as inner:
            inner.set(nodes=3)
            inner.add("trails")
        assert span.record is None

    def test_null_record_is_a_noop(self):
        NULL_TRACER.record("worker", 0.5, index=1)


class TestTracer:
    def test_spans_nest_by_call_order(self):
        tracer = Tracer()
        with tracer.span("detect"):
            with tracer.span("segment"):
                pass
            with tracer.span("match"):
                pass
        root = tracer.root
        assert root is not None
        assert root.name == "detect"
        assert [child.name for child in root.children] == ["segment", "match"]
        assert tracer.span_count() == 3

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.root
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0
        assert outer.self_seconds() == pytest.approx(
            outer.duration - inner.duration
        )

    def test_set_and_add_attributes(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            span.set(nodes=5, engine="parallel")
            span.add("trails")
            span.add("trails", 2)
        record = tracer.root
        assert record.attributes == {"nodes": 5, "engine": "parallel", "trails": 3}

    def test_record_attaches_pre_timed_child(self):
        tracer = Tracer()
        with tracer.span("fan_out"):
            tracer.record("subtpiin", 0.25, index=4)
        child = tracer.root.children[0]
        assert child.name == "subtpiin"
        assert child.duration == pytest.approx(0.25)
        assert child.attributes == {"index": 4}

    def test_exception_inside_nested_span_closes_cursor(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        # the cursor is back at top level: a new span is a new root
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]
        assert tracer.root.children[0].end > 0.0

    def test_span_handle_exposes_record(self):
        tracer = Tracer()
        with tracer.span("detect") as span:
            pass
        assert span.record is tracer.root


class TestExporters:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("detect") as span:
            span.set(engine="faithful")
            with tracer.span("segment") as seg:
                seg.set(subtpiins=2)
        return tracer

    def test_to_jsonl_is_depth_annotated_preorder(self):
        events = [json.loads(line) for line in self._traced().to_jsonl().splitlines()]
        assert [e["name"] for e in events] == ["detect", "segment"]
        assert [e["depth"] for e in events] == [0, 1]
        assert events[0]["attributes"] == {"engine": "faithful"}
        assert all(e["duration_seconds"] >= 0.0 for e in events)

    def test_render_shows_tree_and_attributes(self):
        text = self._traced().render()
        lines = text.splitlines()
        assert lines[0].startswith("detect")
        assert lines[1].startswith("  segment")
        assert "ms" in lines[0]
        assert "[subtpiins=2]" in lines[1]

    def test_to_dict_round_trips_through_json(self):
        root = self._traced().root
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload["name"] == "detect"
        assert payload["children"][0]["name"] == "segment"
        assert payload["children"][0]["attributes"] == {"subtpiins": 2}

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        root = tracer.root
        assert len(root.find("b")) == 2
        assert [name for _, name in ((d, s.name) for d, s in root.walk())] == [
            "a",
            "b",
            "b",
        ]


class TestSpanRecord:
    def test_open_span_duration_is_zero(self):
        record = SpanRecord(name="open", start=10.0)
        assert record.duration == 0.0
