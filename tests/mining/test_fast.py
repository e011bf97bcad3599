"""Unit tests for the per-arc path helpers and the incremental engine.

The helpers run over the frozen influence kernel the streaming detector
builds; the whole-TPIIN runs go through ``engine="incremental"``.
"""

import pytest

from repro.fusion.tpiin import TPIIN
from repro.graph.csr import CSRGraph
from repro.mining.detector import detect
from repro.mining.incremental import _enumerate_root_paths, _paths_between
from repro.mining.options import Engine
from repro.model.colors import EColor


def diamond_tpiin() -> TPIIN:
    return TPIIN.build(
        persons=["r"],
        companies=["a", "b", "t", "u"],
        influence=[("r", "a"), ("r", "b"), ("a", "t"), ("b", "t"), ("t", "u")],
        trading=[("a", "t"), ("u", "a")],
    )


def frozen_influence(tpiin: TPIIN) -> CSRGraph:
    return CSRGraph.freeze(tpiin.graph, colors=(EColor.INFLUENCE,))


class TestHelpers:
    def test_enumerate_root_paths(self):
        csr = frozen_influence(diamond_tpiin())
        by_end = _enumerate_root_paths(csr, "r")
        assert by_end["r"] == [("r",)]
        assert set(by_end["t"]) == {("r", "a", "t"), ("r", "b", "t")}
        assert len(by_end["u"]) == 2

    def test_paths_between(self):
        csr = frozen_influence(diamond_tpiin())
        assert set(_paths_between(csr, "r", "t")) == {
            ("r", "a", "t"),
            ("r", "b", "t"),
        }
        assert _paths_between(csr, "t", "r") == []
        assert _paths_between(csr, "t", "t") == [("t",)]

    def test_paths_between_prunes_unreachable(self):
        csr = frozen_influence(diamond_tpiin())
        assert _paths_between(csr, "u", "b") == []


class TestEquivalence:
    @pytest.mark.parametrize("fixture", ["fig6", "fig8", "case1", "case2", "case3"])
    def test_fast_matches_faithful_on_fixtures(self, fixture, request):
        tpiin = request.getfixturevalue(fixture)
        faithful = detect(tpiin)
        streamed = detect(tpiin, engine=Engine.INCREMENTAL)
        assert {g.key() for g in streamed.groups} == {
            g.key() for g in faithful.groups
        }
        assert streamed.suspicious_trading_arcs == faithful.suspicious_trading_arcs
        assert streamed.total_trading_arcs == faithful.total_trading_arcs

    def test_fast_on_diamond_with_circle(self):
        t = diamond_tpiin()
        faithful = detect(t)
        streamed = detect(t, engine=Engine.INCREMENTAL)
        assert {g.key() for g in streamed.groups} == {
            g.key() for g in faithful.groups
        }

    def test_collect_groups_false_matches_counts(self, fig8):
        full = detect(fig8, engine=Engine.INCREMENTAL, collect_groups=True)
        counted = detect(fig8, engine=Engine.INCREMENTAL, collect_groups=False)
        assert counted.groups == []
        assert counted.simple_group_count == full.simple_group_count
        assert counted.complex_group_count == full.complex_group_count
        assert counted.group_count == full.group_count
        assert counted.suspicious_trading_arcs == full.suspicious_trading_arcs
        assert counted.kind_counts() == full.kind_counts()

    def test_small_province_equivalence(self, small_province_tpiin):
        faithful = detect(small_province_tpiin)
        streamed = detect(small_province_tpiin, engine=Engine.INCREMENTAL)
        assert {g.key() for g in streamed.groups} == {
            g.key() for g in faithful.groups
        }
        assert streamed.subtpiin_count == faithful.subtpiin_count
        assert streamed.cross_component_trades == faithful.cross_component_trades
