from hypothesis import given
from hypothesis import strategies as st
import pytest

from tempoflow import (
    DemandVector,
    FlowOverTime,
    ModelError,
    PiecewiseConstFn,
    compute_mu,
    merged_pieces,
    net_flow,
    project_one_shot_flow,
    to_one_shot,
    validate_flow,
)

from conftest import build_e1
from strategies import edge_fns, piecewise_fns


def test_piecewise_eval():
    f = PiecewiseConstFn(((0, 0, 0), (1, 2, 1), (3, 3, 0)))
    assert [f(t) for t in range(4)] == [0, 1, 1, 0]


def test_piecewise_rejects_gaps():
    with pytest.raises(ModelError):
        PiecewiseConstFn(((0, 1, 2), (3, 4, 1)))


def test_piecewise_rejects_overlap():
    with pytest.raises(ModelError):
        PiecewiseConstFn(((0, 2, 2), (2, 4, 1)))


@given(piecewise_fns())
def test_piecewise_total_on_domain(f: PiecewiseConstFn) -> None:
    for t in range(f.horizon + 1):
        f(t)
    with pytest.raises(ModelError):
        f(f.horizon + 1)


@given(edge_fns())
def test_merged_pieces_tile_and_agree(fn) -> None:
    pieces = merged_pieces(fn.capacity, fn.travel_time)
    assert pieces[0][0] == 0 and pieces[-1][1] == fn.capacity.horizon
    for (a, b, u, tau) in pieces:
        assert a <= b
        for t in range(a, b + 1):
            assert fn.capacity(t) == u and fn.travel_time(t) == tau


def test_mu_counts_merged_pieces():
    assert compute_mu(build_e1()) == 3


def test_source_with_in_edge_rejected():
    from conftest import make_network

    with pytest.raises(ModelError):
        make_network(
            ("s", "d"), {("d", "s"): ([(0, 3, 1)], 1)}, {"s"}, {"d"}, 3
        )


def test_net_flow_e1():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1})
    assert net_flow(net, f, "d", 2) == 1
    assert net_flow(net, f, "d", 3) == 2


def test_validate_flow_accepts_e1_flow():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1})
    v = DemandVector({"s": -2, "d": 2})
    assert validate_flow(net, 3, f, v).ok


def test_validate_flow_capacity_violation():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 0): 1})
    v = DemandVector({"s": -1, "d": 1})
    report = validate_flow(net, 3, f, v)
    assert not report.ok
    assert any(v_.condition == "capacity" for v_ in report.violations)


def test_validate_flow_late_arrival():
    net = build_e1()
    # departing at t = 3 would arrive at 4 > T; also violates capacity there
    f = FlowOverTime({(("s", "d"), 3): 1})
    v = DemandVector({"s": -1, "d": 1})
    assert not validate_flow(net, 3, f, v).ok


def test_to_one_shot_e1():
    one_shot, trace = to_one_shot(build_e1())
    assert set(one_shot.edges) == {("s", "d")}
    e = one_shot.edges[("s", "d")]
    assert (e.alpha, e.beta, e.capacity, e.travel_time) == (1, 2, 1, 1)
    assert not trace.relay_nodes


def test_to_one_shot_relays_later_pieces():
    from conftest import make_network

    net = make_network(
        ("s", "d"),
        {("s", "d"): ([(0, 1, 1), (2, 3, 0), (4, 6, 2)], 1)},
        {"s"},
        {"d"},
        6,
    )
    one_shot, trace = to_one_shot(net)
    assert len(one_shot.edges) == 3  # window, relay window, relay exit
    assert len(trace.relay_nodes) == 1
    relay = next(iter(trace.relay_nodes))
    exit_edge = one_shot.edges[(relay, "d")]
    assert (exit_edge.alpha, exit_edge.beta, exit_edge.travel_time) == (0, 6, 0)


def test_to_one_shot_clips_to_horizon():
    from conftest import make_network

    net = make_network(
        ("s", "d"), {("s", "d"): ([(0, 5, 1)], 3)}, {"s"}, {"d"}, 5
    )
    one_shot, _ = to_one_shot(net)
    assert one_shot.edges[("s", "d")].beta == 2  # departures after 2 miss T=5


def test_project_one_shot_flow_roundtrip():
    from conftest import make_network

    net = make_network(
        ("s", "d"),
        {("s", "d"): ([(0, 1, 1), (2, 3, 0), (4, 6, 2)], 1)},
        {"s"},
        {"d"},
        6,
    )
    one_shot, trace = to_one_shot(net)
    relay = next(iter(trace.relay_nodes))
    g = FlowOverTime(
        {(("s", "d"), 1): 1, (("s", relay), 4): 2, ((relay, "d"), 4): 2}
    )
    f = project_one_shot_flow(net, trace, g)
    v = DemandVector({"s": -3, "d": 3})
    assert validate_flow(net, 6, f, v).ok
    assert f.flows[("s", "d"), 4] == 2


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_demand_vector_total(a: int, b: int) -> None:
    v = DemandVector({"s": a, "d": b})
    assert v.total() == a + b
    assert v.total({"s"}) == a
