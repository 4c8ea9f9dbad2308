import pytest

from tempoflow import (
    BoundedSearchError,
    DemandVector,
    ModelError,
    dttn_feasible,
    extract_flow,
    max_flow_over_time,
    quickest_transshipment,
    validate_flow,
)

from conftest import build_e1, make_network


def test_e1_feasible_at_three():
    assert dttn_feasible(build_e1(), 3, DemandVector({"s": -2, "d": 2})).feasible


def test_e1_infeasible_at_two():
    from tempoflow.solvers import _at_horizon

    net = _at_horizon(build_e1(), 2)
    assert not dttn_feasible(net, 2, DemandVector({"s": -2, "d": 2})).feasible


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
    from tempoflow.solvers import _at_horizon

    assert validate_flow(_at_horizon(build_e1(), 3), 3, flow, DemandVector({"s": -2, "d": 2})).ok


def test_quickest_zero_demand():
    t_star, flow = quickest_transshipment(build_e1(), DemandVector({"s": 0, "d": 0}), 64)
    assert t_star == 0
    assert not flow.flows


def test_quickest_zero_horizon():
    # zero travel time: one unit arrives at the departure step, so T* = 0
    from tempoflow.solvers import _at_horizon

    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 1)], 0)}, {"s"}, {"d"}, 3)
    v = DemandVector({"s": -1, "d": 1})
    assert dttn_feasible(_at_horizon(net, 0), 0, v).feasible
    t_star, flow = quickest_transshipment(net, v, 64)
    assert t_star == 0
    assert validate_flow(_at_horizon(net, 0), 0, flow, v).ok


def test_quickest_cap_exhausted():
    # capacity is 0 forever, so no horizon works
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 0)], 1)}, {"s"}, {"d"}, 3)
    with pytest.raises(BoundedSearchError):
        quickest_transshipment(net, DemandVector({"s": -1, "d": 1}), 32)


def test_maxflow_e1():
    value, flow = max_flow_over_time(build_e1(), 3)
    assert value == 2
    assert flow is not None
    assert validate_flow(build_e1(), 3, flow, DemandVector({"s": -2, "d": 2})).ok


def test_maxflow_static_edge():
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 1)], 1)}, {"s"}, {"d"}, 3)
    value, _ = max_flow_over_time(net, 3)
    assert value == 3  # departures at 0, 1, 2


def test_maxflow_zero_capacity():
    net = make_network(("s", "d"), {("s", "d"): ([(0, 3, 0)], 1)}, {"s"}, {"d"}, 3)
    value, flow = max_flow_over_time(net, 3)
    assert value == 0
    assert not flow.flows


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


def test_extract_flow_e1_unique():
    flow = extract_flow(build_e1(), 3, DemandVector({"s": -2, "d": 2}))
    assert flow.amount(("s", "d"), 1) == 1
    assert flow.amount(("s", "d"), 2) == 1


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
    from tempoflow.solvers import _at_horizon

    for parsed in corpus[:40]:
        net, v = parsed.network, parsed.demands
        if dttn_feasible(net, net.horizon, v).feasible:
            T2 = net.horizon + 1
            assert dttn_feasible(_at_horizon(net, T2), T2, v).feasible
