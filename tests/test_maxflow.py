import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoflow import (
    InternalConsistencyError,
    SteadyFlow,
    UnboundedFlowError,
    build_ten,
    max_flow,
    residual_reachable,
)
import tempoflow.maxflow as maxflow_mod
from tempoflow.expansion import ExpandedGraph
from tempoflow.model import INF

from conftest import build_e1, check_max_flow, cut_capacity, pinned_graphs


def graph_from_arcs(n, arcs, source, sink):
    vertices = tuple((f"v{k}", (0, 0)) for k in range(n))
    ranges = {f"v{k}": range(k, k + 1) for k in range(n)}
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return ExpandedGraph(vertices, tails, heads, caps, source, sink, ranges)


def count_bfs(monkeypatch) -> list[int]:
    """A one-item list counting the level BFS runs of ``max_flow`` from now on."""
    runs = [0]
    levels = maxflow_mod._levels

    def counted(*args):
        runs[0] += 1
        return levels(*args)

    monkeypatch.setattr(maxflow_mod, "_levels", counted)
    return runs


def test_unit_path():
    g = graph_from_arcs(3, [(0, 1, 2), (1, 2, 1)], 0, 2)
    value, flow = max_flow(g)
    assert value == 1
    check_max_flow(g, value, flow)


def test_infinite_path_rejected():
    g = graph_from_arcs(2, [(0, 1, INF)], 0, 1)
    with pytest.raises(UnboundedFlowError):
        max_flow(g)


def test_infinite_arc_off_path_is_fine(monkeypatch):
    """An INF arc out of the source is never saturated: the last BFS misses the sink."""
    bfs = count_bfs(monkeypatch)
    g = graph_from_arcs(3, [(0, 1, INF), (1, 2, 3)], 0, 2)
    value, flow = max_flow(g)
    assert value == 3
    assert bfs == [2]  # the phase's BFS, then the one that misses the sink
    assert flow.side == {0, 1} == residual_reachable(g, flow)


def test_saturated_source_stops_without_a_last_bfs(monkeypatch):
    """Once the source's arcs are full, max flow stops with the side {source}."""
    bfs = count_bfs(monkeypatch)
    g = graph_from_arcs(4, [(0, 1, 2), (1, 2, 5), (1, 3, 5), (3, 2, 5), (2, 0, 4)], 0, 2)
    value, flow = max_flow(g)
    assert value == 2
    assert bfs == [1]
    assert flow.side == {0} == residual_reachable(g, flow)
    check_max_flow(g, value, flow)


def test_side_is_source_exactly_when_its_arcs_are_full(corpus, long_corpus):
    """On every pinned graph the side is the residual-reachable set, and {source} iff saturated."""
    graphs = pinned_graphs(corpus, long_corpus)
    saturated = 0
    for graph, _ in graphs:
        value, flow = max_flow(graph)
        assert flow.side == residual_reachable(graph, flow)
        out = sum(c for t, c in zip(graph.tails, graph.caps) if t == graph.source)
        assert (flow.side == {graph.source}) == (value == out)
        saturated += value == out
    assert 0 < saturated < len(graphs)


def test_zero_flow_is_not_maximum():
    g = build_ten(build_e1())
    assert max_flow(g)[0] > 0
    with pytest.raises(InternalConsistencyError):
        residual_reachable(g, SteadyFlow((0,) * len(g.arcs)))


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("delta", [1, -1])
def test_check_rejects_changed_arc(k, delta):
    # 0 -> 1 -> 2 carries the flow; 0 -> 3 leads to a dead end.  Every change
    # leaves the residual cut equal to the value, so only the capacity and
    # conservation checks see it.
    g = graph_from_arcs(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5)], 0, 2)
    value, flow = max_flow(g)
    check_max_flow(g, value, flow)
    changed = list(flow.arc_flows)
    changed[k] += delta
    with pytest.raises(InternalConsistencyError):
        check_max_flow(g, value, SteadyFlow(tuple(changed)))


def test_check_rejects_wrong_side():
    g = graph_from_arcs(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5)], 0, 2)
    value, flow = max_flow(g)
    assert flow.side == {0, 3}
    with pytest.raises(InternalConsistencyError):
        check_max_flow(g, value, SteadyFlow(flow.arc_flows, frozenset({0})))


def test_min_cut_certificate_e1():
    g = build_ten(build_e1())
    value, flow = max_flow(g)
    side = residual_reachable(g, flow)
    assert cut_capacity(g, side) == value == 2
    labels = g.vertices
    assert all(labels[vid][0] != "d" for vid in side)


@st.composite
def random_dags(draw):
    n = draw(st.integers(2, 7))
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                arcs.append((a, b, draw(st.integers(0, 6))))
    return n, arcs


@settings(max_examples=60)
@given(random_dags())
def test_matches_networkx(dag) -> None:
    n, arcs = dag
    g = graph_from_arcs(n, arcs, 0, n - 1)
    value, flow = max_flow(g)
    check_max_flow(g, value, flow)

    h = nx.DiGraph()
    h.add_nodes_from(range(n))
    for (a, b, c) in arcs:
        if h.has_edge(a, b):
            h[a][b]["capacity"] += c
        else:
            h.add_edge(a, b, capacity=c)
    assert value == nx.maximum_flow_value(h, 0, n - 1)


@settings(max_examples=40)
@given(random_dags())
def test_min_cut_equals_flow(dag) -> None:
    n, arcs = dag
    g = graph_from_arcs(n, arcs, 0, n - 1)
    value, flow = max_flow(g)
    side = residual_reachable(g, flow)
    assert flow.side == side
    assert 0 in side and (n - 1) not in side
    assert cut_capacity(g, side) == value


# sha256 of the max-flow results on ``pinned_graphs``, recorded once
# breakpoint sets became Gamma*(i) within [0, T] (s* and d* one vertex each);
# the flows themselves are pinned apart from s* and d* by
# ``test_expansion.TERMINAL_FREE_DIGEST``.
MAX_FLOW_DIGEST = "84a3077e8a01df6ece0da1be4474f362c2268ed97f2ab12f4bf2c9fcde6fd06c"


def test_max_flow_results_pinned(corpus, long_corpus):
    """Value, arc flows and side of every pinned graph's max flow, as recorded."""
    digest = hashlib.sha256()
    for graph, _ in pinned_graphs(corpus, long_corpus):
        value, flow = max_flow(graph)
        digest.update(repr((value, flow.arc_flows, sorted(flow.side))).encode())
    assert digest.hexdigest() == MAX_FLOW_DIGEST
