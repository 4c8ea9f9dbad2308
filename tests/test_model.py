from hypothesis import given
from hypothesis import strategies as st
import pytest

from tempoflow import (
    INF,
    MAX_INT,
    DemandVector,
    EdgeFn,
    FlowOverTime,
    ModelError,
    OverflowRejection,
    PiecewiseConstFn,
    TemporalNetwork,
    ValidationReport,
    Violation,
    compute_mu,
    extract_flow,
    merged_pieces,
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


_unit = PiecewiseConstFn.constant(1, 3)


def _net(nodes=("s", "d"), edges=(("s", "d"),), sources=("s",), sinks=("d",), horizon=3):
    """A network with a unit edge on each key of ``edges``, all on [0, 3]."""
    fns = dict.fromkeys(edges, EdgeFn(_unit, _unit))
    return TemporalNetwork(tuple(nodes), fns, frozenset(sources), frozenset(sinks), horizon)

# Each rejection of a model constructor: the call, the exception type and message.
MODEL_REJECTIONS = {
    "no pieces": (lambda: PiecewiseConstFn(()), ModelError, "piecewise function needs at least one piece"),
    "non-int start": (
        lambda: PiecewiseConstFn(((0.0, 1, 1),)), ModelError, "piece endpoints must be integers"
    ),
    "non-int end": (
        lambda: PiecewiseConstFn(((0, 1, 1), (2, 3.0, 1))), ModelError, "piece endpoints must be integers"
    ),
    "start > end": (
        lambda: PiecewiseConstFn(((0, 1, 1), (2, 1, 1))), ModelError, "piece [2, 1] has start > end"
    ),
    "first piece not at 0": (lambda: PiecewiseConstFn(((1, 2, 1),)), ModelError, "pieces must start at 0"),
    "gap": (
        lambda: PiecewiseConstFn(((0, 1, 2), (3, 4, 1))),
        ModelError, "pieces must tile the domain: gap/overlap at 1..3",
    ),
    "overlap": (
        lambda: PiecewiseConstFn(((0, 2, 2), (2, 4, 1))),
        ModelError, "pieces must tile the domain: gap/overlap at 2..2",
    ),
    "gap after a bool end": (
        lambda: PiecewiseConstFn(((0, True, 1), (3, 4, 1))),
        ModelError, "pieces must tile the domain: gap/overlap at True..3",
    ),
    "bool value": (
        lambda: PiecewiseConstFn(((0, 1, True),)),
        ModelError, "piece value True is not a non-negative integer or INF",
    ),
    "negative value": (
        lambda: PiecewiseConstFn(((0, 1, 1), (2, 3, -1))),
        ModelError, "piece value -1 is not a non-negative integer or INF",
    ),
    "non-number value": (
        lambda: PiecewiseConstFn(((0, 1, "2"),)),
        ModelError, "piece value '2' is not a non-negative integer or INF",
    ),
    "value above MAX_INT": (
        lambda: PiecewiseConstFn(((0, 1, MAX_INT + 1),)),
        OverflowRejection, f"piece value: {MAX_INT + 1} exceeds machine integer range",
    ),
    "bad value before a later gap": (
        lambda: PiecewiseConstFn(((0, 1, -1), (3, 4, 1))),
        ModelError, "piece value -1 is not a non-negative integer or INF",
    ),
    "domains differ": (
        lambda: EdgeFn(_unit, PiecewiseConstFn.constant(1, 4)),
        ModelError, "capacity and travel-time domains differ",
    ),
    "INF travel time": (
        lambda: EdgeFn(_unit, PiecewiseConstFn.constant(INF, 3)),
        ModelError, "travel times must be non-negative integers",
    ),
    "negative travel time": (
        lambda: EdgeFn(_unit, PiecewiseConstFn(((0, 1, 1), (2, 3, -2)))),
        ModelError, "piece value -2 is not a non-negative integer or INF",
    ),
    "duplicate ids": (lambda: _net(nodes=("s", "d", "s")), ModelError, "duplicate node ids"),
    "negative horizon": (lambda: _net(edges=(), horizon=-1), ModelError, "horizon must be non-negative"),
    "source and sink": (
        lambda: _net(edges=(), sinks=("s", "d")), ModelError, "a node cannot be both source and sink"
    ),
    "terminal outside node set": (
        lambda: _net(edges=(), sinks=("x",)), ModelError, "terminal outside node set"
    ),
    "self-loop": (lambda: _net(edges=[("d", "d")]), ModelError, "self-loop at d"),
    "unknown endpoint": (
        lambda: _net(edges=[("s", "x")]), ModelError, "edge (s, x) references unknown node"
    ),
    "source in-edge": (
        lambda: _net(nodes=("s", "m", "d"), edges=[("m", "s")]), ModelError, "source s has an in-edge"
    ),
    "sink out-edge": (
        lambda: _net(nodes=("s", "m", "d"), edges=[("d", "m")]), ModelError, "sink d has an out-edge"
    ),
    "horizon mismatch": (
        lambda: _net(horizon=4), ModelError, "edge (s, d) functions not defined on [0, 4]"
    ),
    "non-int demand": (
        lambda: DemandVector({"s": -1.0, "d": 1}), ModelError, "demand of s must be an integer"
    ),
    "bool demand": (lambda: DemandVector({"d": True}), ModelError, "demand of d must be an integer"),
    "demand width": (
        lambda: DemandVector({"s": -MAX_INT - 1}),
        OverflowRejection, f"demand of s: {-MAX_INT - 1} exceeds machine integer range",
    ),
}


@pytest.mark.parametrize("build, exc_type, message", MODEL_REJECTIONS.values(), ids=MODEL_REJECTIONS)
def test_model_rejections_pinned(build, exc_type, message):
    with pytest.raises(ModelError) as err:
        build()
    assert type(err.value) is exc_type
    assert str(err.value) == message


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


def net_flow(net: TemporalNetwork, f: FlowOverTime, i: str, t: int) -> int:
    """Arrivals into ``i`` by time ``t`` minus departures from ``i`` by ``t``.

    A departure on edge ji at time t' counts as arrived once
    t' + travel_time(t') <= t.
    """
    total = 0
    for (edge, t0), amount in f.flows.items():
        if amount == 0:
            continue
        tail, head = edge
        if head == i and t0 + net.edges[edge].travel_time(t0) <= t:
            total += amount
        if tail == i and t0 <= t:
            total -= amount
    return total


def test_net_flow_e1():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1})
    assert net_flow(net, f, "d", 2) == 1
    assert net_flow(net, f, "d", 3) == 2


def test_validate_flow_accepts_e1_flow():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1})
    v = DemandVector({"s": -2, "d": 2})
    assert validate_flow(net, f, v).ok


def test_validate_flow_capacity_violation():
    net = build_e1()
    f = FlowOverTime({(("s", "d"), 0): 1})
    v = DemandVector({"s": -1, "d": 1})
    report = validate_flow(net, f, v)
    assert not report.ok
    assert any(v_.condition == "capacity" for v_ in report.violations)


def test_validate_flow_negative_amount():
    """Condition (1) is 0 <= f <= u: a negative amount is a capacity violation."""
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): -1})
    report = validate_flow(build_e1(), f, DemandVector({"s": 0, "d": 0}))
    assert report.violations == (Violation("capacity", "s->d", 2, "flow -1 < 0"),)


def test_validate_flow_departure_past_horizon():
    """T is the network's own: a departure after it is reported, not raised."""
    f = FlowOverTime({(("s", "d"), 4): 1})
    report = validate_flow(build_e1(), f, DemandVector({"s": -1, "d": 1}))
    assert report.violations == (
        Violation("horizon", "s->d", 4, "departure 4 outside [0, 3]"),
        Violation("demand", "s", 3, "net flow 0 != demand -1"),
        Violation("demand", "d", 3, "net flow 0 != demand 1"),
    )


def test_validate_flow_late_arrival():
    net = build_e1()
    # departing at t = 3 would arrive at 4 > T; also violates capacity there
    f = FlowOverTime({(("s", "d"), 3): 1})
    v = DemandVector({"s": -1, "d": 1})
    assert not validate_flow(net, f, v).ok


def net_flow_report(net, horizon, f, v):
    """``validate_flow`` as it was before its one-sweep form: ``net_flow`` at every event."""
    out = []
    for (edge, t), amount in sorted(f.flows.items()):
        if amount == 0:
            continue
        where = f"{edge[0]}->{edge[1]}"
        if edge not in net.edges:
            out.append(Violation("edge-exists", where, t, "unknown edge"))
            continue
        fn = net.edges[edge]
        if t < 0 or t > horizon:
            out.append(Violation("horizon", where, t, f"departure {t} outside [0, {horizon}]"))
            continue
        if t + fn.travel_time(t) > horizon:
            arrive = t + fn.travel_time(t)
            out.append(Violation("horizon", where, t, f"arrival {arrive} after horizon {horizon}"))
            continue
        if amount > fn.capacity(t):
            out.append(Violation("capacity", where, t, f"flow {amount} > capacity {fn.capacity(t)}"))
    events = {i: {horizon} for i in net.nodes}
    for (edge, t), amount in f.flows.items():
        if amount == 0 or edge not in net.edges or not (0 <= t <= horizon):
            continue
        events[edge[0]].add(t)
        arrive = t + net.edges[edge].travel_time(t)
        if arrive <= horizon:
            events[edge[1]].add(arrive)
    for i in net.nodes:
        for t in sorted(events[i]):
            nf = net_flow(net, f, i, t)
            if i not in net.sources and nf < 0:
                out.append(Violation("storage", i, t, f"net flow {nf} < 0"))
        nf_end = net_flow(net, f, i, horizon)
        if i not in net.terminals and nf_end != 0:
            out.append(Violation("conservation", i, horizon, f"net flow {nf_end} != 0"))
        elif i in net.terminals and nf_end != v.get(i):
            out.append(Violation("demand", i, horizon, f"net flow {nf_end} != demand {v.get(i)}"))
    return ValidationReport(tuple(out))


def perturbed(flows: dict, horizon: int) -> list[dict]:
    """Copies of a witness with one entry's amount raised, one departure
    shifted either way within [0, T], and one departure added on an unknown
    edge.  (Before the one-sweep form, a departure outside [0, T] or an
    unknown edge into a node made ``validate_flow`` raise.)"""
    copies = []
    for key in sorted(flows)[::3]:
        (edge, t), amount = key, flows[key]
        copies.append({**flows, key: amount + 1})
        for shift in (-1, 1):
            if not 0 <= t + shift <= horizon:
                continue
            moved = {k: a for k, a in flows.items() if k != key}
            moved[edge, t + shift] = moved.get((edge, t + shift), 0) + amount
            copies.append(moved)
        copies.append({**flows, ((edge[0], "elsewhere"), t): 1})
    return copies


def test_validate_flow_equals_net_flow_reference(corpus):
    """Reports equal the per-event ``net_flow`` form's, violation for violation."""
    checked = 0
    for parsed in corpus[::25]:
        net, v = parsed.network, parsed.demands
        try:
            witness = extract_flow(net, net.horizon, v)
        except ModelError:
            continue  # infeasible: no witness
        for flows in [witness.flows] + perturbed(witness.flows, net.horizon):
            f = FlowOverTime(flows)
            report = validate_flow(net, f, v)
            assert report == net_flow_report(net, net.horizon, f, v)
            checked += not report.ok
    assert checked > 50


def test_validate_flow_reports_unknown_edge_into_node():
    """An unknown edge between known nodes is a violation, not a KeyError."""
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1, (("d", "s"), 0): 1})
    report = validate_flow(build_e1(), f, DemandVector({"s": -2, "d": 2}))
    assert report.violations == (
        Violation("edge-exists", "d->s", 0, "unknown edge"),
        Violation("demand", "d", 3, "net flow 1 != demand 2"),
    )


def test_to_one_shot_e1():
    one_shot, relays = to_one_shot(build_e1())
    assert set(one_shot.edges) == {("s", "d")}
    e = one_shot.edges[("s", "d")]
    assert (e.alpha, e.beta, e.capacity, e.travel_time) == (1, 2, 1, 1)
    assert not relays


def test_to_one_shot_relays_later_pieces():
    from conftest import make_network

    net = make_network(
        ("s", "d"),
        {("s", "d"): ([(0, 1, 1), (2, 3, 0), (4, 6, 2)], 1)},
        {"s"},
        {"d"},
        6,
    )
    one_shot, relays = to_one_shot(net)
    assert len(one_shot.edges) == 3  # window, relay window, relay exit
    assert len(relays) == 1
    relay = next(iter(relays))
    assert relays[relay] == ("s", "d")
    exit_edge = one_shot.edges[(relay, "d")]
    assert (exit_edge.alpha, exit_edge.beta, exit_edge.travel_time) == (0, 6, 0)


def test_to_one_shot_clips_to_horizon():
    from conftest import make_network

    net = make_network(
        ("s", "d"), {("s", "d"): ([(0, 5, 1)], 3)}, {"s"}, {"d"}, 5
    )
    one_shot, _ = to_one_shot(net)
    assert one_shot.edges[("s", "d")].beta == 2  # departures after 2 miss T=5


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_demand_vector_total(a: int, b: int) -> None:
    v = DemandVector({"s": a, "d": b})
    assert v.total() == a + b
    assert v.total({"s"}) == a
