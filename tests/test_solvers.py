import hashlib

import pytest
from hypothesis import assume, given, settings

from tempoflow import (
    INF,
    MAX_INT,
    BoundedSearchError,
    DemandVector,
    ModelError,
    OverflowRejection,
    attach_super_terminals,
    build_ten,
    capacity_oT_ten,
    dttn_feasible,
    extract_flow,
    hoppe_tardos_star,
    max_flow,
    max_flow_over_time,
    quickest_transshipment,
    to_one_shot,
    validate_flow,
)
from tempoflow.netio import parse_network
from tempoflow.solvers import _at_horizon

from conftest import build_chain, build_e1, make_network
from strategies import demand_instances, temporal_networks
from test_netio import E1_FILE


def test_e1_feasible_at_three():
    assert dttn_feasible(build_e1(), 3, DemandVector({"s": -2, "d": 2})).feasible


def test_e1_infeasible_at_two():
    net = _at_horizon(build_e1(), 2)
    assert not dttn_feasible(net, 2, DemandVector({"s": -2, "d": 2})).feasible


def test_long_chain_verdict_matches_ten():
    """A 1,100-node chain: the verdict's flow equals the full expansion's."""
    net = build_chain(1100)
    v = DemandVector({"s": -8, "d": 8})
    outcome = dttn_feasible(net, net.horizon, v)
    ten_value, _ = max_flow(build_ten(attach_super_terminals(net, v)))
    assert outcome.flow_value == ten_value == 4
    assert not outcome.feasible


@pytest.mark.parametrize(
    "values",
    [{"s": -1, "d": 2}, {"s": -1, "d": 1, "x": 0}, {"s": 1, "d": -1}],
    ids=["unbalanced", "non-terminal", "positive-source"],
)
def test_unbalanced_demand_rejected(values):
    with pytest.raises(ModelError):
        dttn_feasible(build_e1(), 3, DemandVector(values))


def test_quickest_e1_one_unit():
    t_star, flow = quickest_transshipment(build_e1(), DemandVector({"s": -1, "d": 1}), 64)
    assert t_star == 2
    assert flow is not None


def test_quickest_e1_two_units():
    t_star, flow = quickest_transshipment(build_e1(), DemandVector({"s": -2, "d": 2}), 64)
    assert t_star == 3
    assert validate_flow(_at_horizon(build_e1(), 3), flow, DemandVector({"s": -2, "d": 2})).ok


def test_quickest_zero_demand():
    t_star, flow = quickest_transshipment(build_e1(), DemandVector({"s": 0, "d": 0}), 64)
    assert t_star == 0
    assert not flow.flows


def test_quickest_zero_horizon():
    # zero travel time: one unit arrives at the departure step, so T* = 0
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 1)], 0)}, {"s"}, {"d"}, 3)
    v = DemandVector({"s": -1, "d": 1})
    assert dttn_feasible(_at_horizon(net, 0), 0, v).feasible
    t_star, flow = quickest_transshipment(net, v, 64)
    assert t_star == 0
    assert validate_flow(_at_horizon(net, 0), flow, v).ok


def test_quickest_cap_exhausted():
    # capacity is 0 forever, so no horizon works
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 0)], 1)}, {"s"}, {"d"}, 3)
    with pytest.raises(BoundedSearchError):
        quickest_transshipment(net, DemandVector({"s": -1, "d": 1}), 32)


def test_maxflow_e1():
    value, flow = max_flow_over_time(build_e1(), 3)
    assert value == 2
    assert flow is not None
    assert validate_flow(build_e1(), flow, DemandVector({"s": -2, "d": 2})).ok


def test_maxflow_static_edge():
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 1)], 1)}, {"s"}, {"d"}, 3)
    value, _ = max_flow_over_time(net, 3)
    assert value == 3  # departures at 0, 1, 2


def test_maxflow_zero_capacity():
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 0)], 1)}, {"s"}, {"d"}, 3)
    value, flow = max_flow_over_time(net, 3)
    assert value == 0
    assert not flow.flows


def test_maxflow_unbounded_is_inf():
    """An INF-capacity window from s to d carries any amount: the answer is INF, with no witness."""
    net = parse_network(E1_FILE.replace("cap 1", "cap inf")).network
    assert max_flow_over_time(net, 3) == (INF, None)


def test_maxflow_requires_single_terminals():
    net = make_network(
        ("a", "b", "d"),
        {("a", "d"): ([(0, 3, 1)], 1), ("b", "d"): ([(0, 3, 1)], 1)},
        {"a", "b"},
        {"d"},
        3,
    )
    with pytest.raises(ModelError):
        max_flow_over_time(net, 3)


def test_verdict_exact_where_the_gadget_demand_overflows():
    """u * T fits the machine integer range and u * (T + 1) does not: o_T({s}) is u * T.

    The gadget form rejects the edge; the verdict reads no capacity into
    its sets and computes in Python integers.  No max flow over time is
    asked for: its value fits the demand range, so it would build a
    witness expansion of about 1.8M vertices.
    """
    u, T = 10**13, 922_337
    assert u * T <= MAX_INT < u * (T + 1)
    net = make_network(("s", "d"), {("s", "d"): ([(0, T, u)], 1)}, {"s"}, {"d"}, T)
    v = DemandVector({"s": -MAX_INT, "d": MAX_INT})
    with pytest.raises(OverflowRejection):
        hoppe_tardos_star(to_one_shot(net)[0], v)
    outcome = dttn_feasible(net, T, v)
    assert outcome.serialize() == f"INFEASIBLE violated=s oT={u * T} negv={MAX_INT}"


def test_large_horizon_and_capacity_answered_exactly():
    """T = 10**6 and u = 10**13: u * T = 10**19 leaves the demand range, so no witness."""
    u, T = 10**13, 10**6
    net = make_network(("s", "d"), {("s", "d"): ([(0, T, u)], 1)}, {"s"}, {"d"}, T)
    assert dttn_feasible(net, T, DemandVector({"s": -(2**62), "d": 2**62})).feasible
    assert max_flow_over_time(net, T) == (u * T, None) == (10**19, None)


@settings(max_examples=60, deadline=None)
@given(temporal_networks(single_pair=True))
def test_max_flow_over_time_bounds_single_pair_demands(net):
    """The max flow over time w is o_T({s}): demand w is feasible, w + 1 is not."""
    (s,), (d,) = net.sources, net.sinks
    w, _ = max_flow_over_time(net, net.horizon)
    assert w == capacity_oT_ten(net, frozenset({s}))
    assert dttn_feasible(net, net.horizon, DemandVector({s: -w, d: w})).feasible
    over = dttn_feasible(net, net.horizon, DemandVector({s: -w - 1, d: w + 1}))
    assert not over.feasible
    assert over.violated == {s} and over.o_T == w


def test_extract_flow_e1_unique():
    flow = extract_flow(build_e1(), 3, DemandVector({"s": -2, "d": 2}))
    assert flow.flows[("s", "d"), 1] == 1
    assert flow.flows[("s", "d"), 2] == 1


def test_extract_flow_infeasible_instance():
    with pytest.raises(ModelError):
        extract_flow(build_e1(), 3, DemandVector({"s": -3, "d": 3}))


@pytest.mark.parametrize(
    "values, message",
    [
        ({"s": -1, "d": 1, "x": 0}, "non-terminals"),
        ({"s": 1, "d": -1}, "source s has positive demand"),
    ],
    ids=["non-terminal", "positive-source"],
)
def test_extract_flow_rejects_bad_demands(values, message):
    with pytest.raises(ModelError, match=message):
        extract_flow(build_e1(), 3, DemandVector(values))


def test_horizon_monotonicity(corpus):
    for parsed in corpus[:40]:
        net, v = parsed.network, parsed.demands
        if dttn_feasible(net, net.horizon, v).feasible:
            T2 = net.horizon + 1
            assert dttn_feasible(_at_horizon(net, T2), T2, v).feasible


@settings(max_examples=60, deadline=None)
@given(demand_instances(inf=True))
def test_feasible_at_horizon_stays_feasible_one_step_later(instance):
    """Waiting one more step never loses a feasible transshipment."""
    net, v = instance
    assume(dttn_feasible(net, net.horizon, v).feasible)
    T2 = net.horizon + 1
    assert dttn_feasible(_at_horizon(net, T2), T2, v).feasible


# sha256 of what the solvers answer on the corpus and the long corpus, read
# apart from how the expansions are built: the verdicts, the max flows over
# time and the witnesses.  Recorded while every breakpoint set held T.
ANSWERS_DIGEST = "40a333964ccad2673f0259c57181b68f25fcdc14fb8b468c6297cd57432b841c"


def test_answers_do_not_depend_on_the_expansion(corpus, long_corpus):
    """Verdicts, certificates, max flows over time and witnesses, as recorded.

    Per instance: the verdict's (feasible, sorted A, o_T, -v(A), flow
    value), and for single-pair networks the max flow over time's value.
    Then the ``extract_flow`` witnesses of ``corpus[:40]``, compared whole.
    """
    digest = hashlib.sha256()
    for p in corpus + long_corpus:
        net, v = p.network, p.demands
        out = dttn_feasible(net, net.horizon, v)
        violated = None if out.violated is None else sorted(out.violated)
        digest.update(repr((out.feasible, violated, out.o_T, out.neg_v, out.flow_value)).encode())
        if len(net.sources) == len(net.sinks) == 1:
            digest.update(repr(max_flow_over_time(net, net.horizon)[0]).encode())
    for p in corpus[:40]:
        try:
            witness = sorted(extract_flow(p.network, p.network.horizon, p.demands).flows.items())
        except ModelError as err:
            witness = str(err)
        digest.update(repr(witness).encode())
    assert digest.hexdigest() == ANSWERS_DIGEST
