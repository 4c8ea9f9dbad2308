import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempoflow import (
    ModelError,
    OracleBudgetError,
    attach_super_terminals,
    build_cten,
    build_ten,
    cten_edge_capacity,
    intervals_of,
    max_flow,
    merged_pieces,
)

from conftest import build_e1, build_fig4
from strategies import balanced_demands, edge_fns, temporal_networks


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
    part = intervals_of((0, 1, 4), 4)
    assert part.intervals == ((0, 0), (1, 3), (4, 4))
    assert part.interval_of(2) == (1, 3)
    assert [part.index_of(t) for t in (0, 1, 3, 4)] == [0, 1, 1, 2]
    assert intervals_of((0,), 0).index_of(0) == 0
    for t in (-1, 5):
        with pytest.raises(ModelError):
            part.index_of(t)


def test_interval_partition_requires_bounds():
    with pytest.raises(ModelError):
        intervals_of((1, 4), 4)


def test_e1_ten_arcs_and_value():
    graph = build_ten(build_e1())
    crossing = [
        (graph.label(a.tail), graph.label(a.head), a.capacity)
        for a in graph.arcs
        if graph.label(a.tail)[0] != graph.label(a.head)[0]
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


@given(temporal_networks(inf=True), st.data())
def test_cten_sums_ten_into_interval_blocks(net, data) -> None:
    """The cTEN is the TEN with each (interval, interval) block summed, in order.

    Blocks are grouped like the arcs of both builders (holdovers per node,
    then one group per edge) and sorted within a group; blocks inside one
    interval are dropped.
    """
    full = attach_super_terminals(net, data.draw(balanced_demands(net)))
    T = full.horizon
    bps = {i: (0, T, *data.draw(st.sets(st.integers(0, T)))) for i in full.nodes}
    parts = {i: intervals_of(bps[i], T) for i in full.nodes}
    ten, cten = build_ten(full), build_cten(full, bps)
    assert cten.vertices == tuple((i, iv) for i in full.nodes for iv in parts[i].intervals)
    blocks: dict = {}
    for tail, head, cap in ten.arcs:
        (i, (t, _)), (j, (t2, _)) = ten.label(tail), ten.label(head)
        a = cten.vertex(i, parts[i].interval_of(t))
        b = cten.vertex(j, parts[j].interval_of(t2))
        if a != b:
            group = blocks.setdefault((i, j), {})
            group[a, b] = group.get((a, b), 0) + cap
    expected = [(a, b, cap) for group in blocks.values() for (a, b), cap in sorted(group.items())]
    assert [tuple(arc) for arc in cten.arcs] == expected
