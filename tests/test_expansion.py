import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempoflow import (
    ModelError,
    OracleBudgetError,
    build_cten,
    build_ten,
    cten_edge_capacity,
    intervals_of,
    max_flow,
    merged_pieces,
)

from conftest import build_e1, build_fig4
from strategies import edge_fns


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
