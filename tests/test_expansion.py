import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempoflow import (
    INF,
    ModelError,
    OracleBudgetError,
    build_cten,
    build_ten,
    cten_edge_capacity,
    intervals_of,
    max_flow,
    merged_pieces,
)
from tempoflow.reductions import with_super_terminals
from tempoflow.solvers import _at_horizon

from conftest import build_e1, build_fig4, make_network, oracle_ten
from strategies import edge_fns, temporal_networks


def brute_capacity(fn, interval, target):
    a, b = interval
    a2, b2 = target
    total = 0
    for t in range(a, b + 1):
        u = fn.capacity(t)
        if u and a2 <= t + fn.travel_time(t) <= b2:
            total += u
    return total


def test_interval_partition_convention():
    assert intervals_of((0, 1, 4), 4) == ((0, 0), (1, 3), (4, 4))
    net = build_fig4()
    graph = build_cten(net, {i: (0, 1, 4) for i in net.nodes})
    first = graph.ranges["b"].start
    assert graph.label(graph.vertex_at("b", 2)) == ("b", (1, 3))
    assert [graph.vertex_at("b", t) - first for t in (0, 1, 3, 4)] == [0, 1, 1, 2]
    assert intervals_of((0,), 0) == ((0, 0),)
    flat = _at_horizon(build_e1(), 0)
    point = build_cten(flat, {i: (0,) for i in flat.nodes})
    assert point.vertex_at("d", 0) - point.ranges["d"].start == 0
    for t in (-1, 5):
        with pytest.raises(ModelError):
            graph.vertex_at("b", t)


def test_interval_partition_requires_bounds():
    with pytest.raises(ModelError):
        intervals_of((1, 4), 4)


def test_e1_ten_arcs_and_value():
    graph = build_ten(build_e1())
    crossing = [
        (graph.label(tail), graph.label(head), cap)
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if graph.label(tail)[0] != graph.label(head)[0]
    ]
    assert crossing == [
        (("s", (1, 1)), ("d", (2, 2)), 1),
        (("s", (2, 2)), ("d", (3, 3)), 1),
    ]
    value, _ = max_flow(graph)
    assert value == 2


def test_ten_budget_gate():
    with pytest.raises(OracleBudgetError):
        build_ten(build_e1(), budget=3)


def test_fig4_ten_value_zero():
    value, _ = max_flow(build_ten(build_fig4()))
    assert value == 0


def test_fig4_coarse_cten_value_one():
    net = build_fig4()
    coarse = {i: (0, 1, 4) for i in net.nodes}
    value, _ = max_flow(build_cten(net, coarse))
    assert value == 1


def test_cten_with_full_breakpoints_matches_ten():
    net = build_e1()
    full = {i: tuple(range(4)) for i in net.nodes}
    ten_value, _ = max_flow(build_ten(net))
    cten_value, _ = max_flow(build_cten(net, full))
    assert ten_value == cten_value == 2


@given(
    edge_fns(),
    st.data(),
)
def test_cten_edge_capacity_matches_brute_force(fn, data) -> None:
    T = fn.capacity.horizon
    a = data.draw(st.integers(0, T))
    b = data.draw(st.integers(a, T))
    a2 = data.draw(st.integers(0, T))
    b2 = data.draw(st.integers(a2, T))
    pieces = merged_pieces(fn.capacity, fn.travel_time)
    assert cten_edge_capacity(pieces, (a, b), (a2, b2)) == brute_capacity(
        fn, (a, b), (a2, b2)
    )


# name: (T, capacity pieces, travel-time pieces, tail points, head points,
# number of arcs from x to y)
SWEEP_CASES = {
    # The second piece departs at 3 or later and travels 5 > T - 3.
    "piece past the horizon": (
        6, [(0, 2, 2), (3, 6, 3)], [(0, 2, 1), (3, 6, 5)], (0, 2, 6), (0, 3, 6), 2,
    ),
    "zero piece between live ones": (
        8, [(0, 1, 2), (2, 4, 0), (5, 8, 1)], [(0, 8, 1)], (0, 2, 5, 8), (0, 3, 6, 8), 3,
    ),
    "inf piece over several intervals": (
        8, [(0, 5, INF), (6, 8, 1)], [(0, 8, 0)], (0, 2, 4, 7, 8), (0, 3, 8), 6,
    ),
    "horizon zero": (0, [(0, 0, 3)], [(0, 0, 0)], (0,), (0,), 1),
    "horizon zero, travel past it": (0, [(0, 0, 3)], [(0, 0, 1)], (0,), (0,), 0),
    # Departures 0..7 arrive over 2..9, across the head's first three intervals.
    "arrivals over three intervals": (10, [(0, 10, 1)], [(0, 10, 2)], (0, 8, 10), (0, 4, 7, 10), 4),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_edge_cases(case):
    """One edge x -> y: its arcs are the oracle TEN's blocks and the brute-force sums."""
    T, caps, tts, tail_points, head_points, n_arcs = SWEEP_CASES[case]
    net = make_network(["x", "y"], {("x", "y"): (caps, tts)}, ["x"], ["y"], T)
    fn = net.edges["x", "y"]
    pieces = merged_pieces(fn.capacity, fn.travel_time)
    graph = build_cten(net, {"x": tail_points, "y": head_points})
    brute = {}
    for iv in intervals_of(tail_points, T):
        for iv2 in intervals_of(head_points, T):
            cap = brute_capacity(fn, iv, iv2)
            assert cten_edge_capacity(pieces, iv, iv2) == cap
            if cap:
                brute[graph.vertex_at("x", iv[0]), graph.vertex_at("y", iv2[0])] = cap
    blocks = {}
    for (i, t), (j, t2), attrs in oracle_ten(net).edges(data=True):
        if i != j:
            key = graph.vertex_at(i, t), graph.vertex_at(j, t2)
            blocks[key] = blocks.get(key, 0) + attrs["capacity"]
    crossing = [
        ((tail, head), cap)
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if graph.label(tail)[0] != graph.label(head)[0]
    ]
    assert crossing == sorted(blocks.items()) == sorted(brute.items())
    assert len(crossing) == n_arcs


@given(temporal_networks(inf=True), st.data())
def test_cten_sums_ten_into_interval_blocks(net, data) -> None:
    """The cTEN is the TEN with each (interval, interval) block summed, in order.

    Each terminal's super edge has capacity 0, k or INF, and the horizon
    may be cut to 0.  The TEN is the networkx ``oracle_ten`` of the
    materialized super network; ``build_ten``'s labelled arcs must equal
    its edges and capacities.  Blocks are grouped like the arcs of both
    builders (holdovers per node, then one group per edge, super edges
    last) and sorted within a group; blocks inside one interval are
    dropped.  The closed-form super arcs are also the arcs the
    materialized super edges sweep into.
    """
    if data.draw(st.booleans(), label="horizon 0"):
        net = _at_horizon(net, 0)
    cap = st.sampled_from((0, INF)) | st.integers(1, 9)
    full = with_super_terminals(net, {t: data.draw(cap, label=t) for t in sorted(net.terminals)})
    flat = full.materialize()
    T = full.horizon
    bps = {i: (0, T, *data.draw(st.sets(st.integers(0, T)))) for i in full.nodes}
    ten, cten, oracle = build_ten(full), build_cten(full, bps), oracle_ten(flat)
    assert cten == build_cten(flat, bps)
    oracle_arcs = [(p, q, attrs.get("capacity", INF)) for p, q, attrs in oracle.edges(data=True)]
    ten_arcs = []
    for tail, head, cap in zip(ten.tails, ten.heads, ten.caps):
        (i, (t, _)), (j, (t2, _)) = ten.label(tail), ten.label(head)
        ten_arcs.append(((i, t), (j, t2), cap))
    assert sorted(ten_arcs) == sorted(oracle_arcs)
    assert cten.vertices == tuple((i, iv) for i in full.nodes for iv in intervals_of(bps[i], T))
    blocks: dict = {**{(i, i): {} for i in flat.nodes}, **{e: {} for e in flat.edges}}
    for (i, t), (j, t2), cap in oracle_arcs:
        a, b = cten.vertex_at(i, t), cten.vertex_at(j, t2)
        if a != b:
            group = blocks[i, j]
            group[a, b] = group.get((a, b), 0) + cap
    expected = [(a, b, cap) for group in blocks.values() for (a, b), cap in sorted(group.items())]
    assert list(zip(cten.tails, cten.heads, cten.caps)) == expected
