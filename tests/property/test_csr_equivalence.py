"""Property: freezing into the CSR kernel is lossless.

freeze/thaw is the identity on nodes, colors and colored arcs
(multi-color parallel arcs included), and every per-color degree of the
frozen kernel equals the source graph's.
"""

from hypothesis import given, settings

from repro.graph.csr import CSRGraph

from .strategies import tpiins


@settings(max_examples=120, deadline=None)
@given(tpiin=tpiins())
def test_freeze_thaw_round_trip(tpiin):
    graph = tpiin.graph
    csr = CSRGraph.freeze(graph)
    thawed = csr.to_digraph()
    assert set(thawed.nodes()) == set(graph.nodes())
    assert set(thawed.arcs()) == set(graph.arcs())
    for node in graph.nodes():
        assert thawed.node_color(node) == graph.node_color(node)
        for color in csr.arc_color_domain:
            assert csr.out_degree(node, color) == graph.out_degree(node, color)
            assert csr.in_degree(node, color) == graph.in_degree(node, color)
