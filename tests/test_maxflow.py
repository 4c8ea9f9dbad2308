import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoflow import (
    InternalConsistencyError,
    SteadyFlow,
    UnboundedFlowError,
    build_ten,
    check_max_flow,
    cut_capacity,
    max_flow,
    residual_reachable,
)
from tempoflow.expansion import ExpandedGraph
from tempoflow.model import INF

from conftest import build_e1


def graph_from_arcs(n, arcs, source, sink):
    vertices = tuple((f"v{k}", (0, 0)) for k in range(n))
    ranges = {f"v{k}": range(k, k + 1) for k in range(n)}
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return ExpandedGraph(vertices, tails, heads, caps, source, sink, ranges)


def test_unit_path():
    g = graph_from_arcs(3, [(0, 1, 2), (1, 2, 1)], 0, 2)
    value, flow = max_flow(g)
    assert value == 1
    check_max_flow(g, value, flow)


def test_infinite_path_rejected():
    g = graph_from_arcs(2, [(0, 1, INF)], 0, 1)
    with pytest.raises(UnboundedFlowError):
        max_flow(g)


def test_infinite_arc_off_path_is_fine():
    g = graph_from_arcs(3, [(0, 1, INF), (1, 2, 3)], 0, 2)
    value, _ = max_flow(g)
    assert value == 3


def test_zero_flow_is_not_maximum():
    g = build_ten(build_e1())
    assert max_flow(g)[0] > 0
    with pytest.raises(InternalConsistencyError):
        residual_reachable(g, SteadyFlow((0,) * len(g.arcs), 0))


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
        check_max_flow(g, value, SteadyFlow(tuple(changed), value))


def test_check_rejects_wrong_side():
    g = graph_from_arcs(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5)], 0, 2)
    value, flow = max_flow(g)
    assert flow.side == {0, 3}
    with pytest.raises(InternalConsistencyError):
        check_max_flow(g, value, SteadyFlow(flow.arc_flows, value, frozenset({0})))


def test_min_cut_certificate_e1():
    g = build_ten(build_e1())
    value, flow = max_flow(g)
    side = residual_reachable(g, flow)
    assert cut_capacity(g, side) == value == 2
    assert all(g.label(vid)[0] != "d" for vid in side)


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
