from collections import Counter

import pytest
from hypothesis import given, settings

from tempoflow import (
    DemandVector,
    ModelError,
    attach_super_terminals,
    build_ten,
    capacity_oT,
    capacity_oT_ten,
    dttn_feasible,
    feas,
    gadget_breakpoints,
    gamma_breakpoints,
    max_flow,
)

from conftest import build_e1, make_network
from strategies import demand_instances


def feas_e1(v):
    return feas(build_e1(), v)


def fast_capacity(net, a):
    return capacity_oT(net, gadget_breakpoints(net), a)


def test_zero_demand_feasible():
    assert feas_e1(DemandVector({"s": 0, "d": 0})).feasible


def test_e1_two_units_feasible():
    outcome = feas_e1(DemandVector({"s": -2, "d": 2}))
    assert outcome.feasible
    assert outcome.serialize() == "FEASIBLE"
    # Every E1 set is {0}: s, d, s* and d* one vertex each, and three arcs.
    graph = outcome.graph
    assert (graph.vertex_count, len(graph.arcs)) == (4, 3)


def test_e1_three_units_infeasible_with_certificate():
    v = DemandVector({"s": -3, "d": 3})
    outcome = feas_e1(v)
    assert not outcome.feasible
    assert outcome.violated and "s" in outcome.violated
    assert outcome.o_T < outcome.neg_v
    assert fast_capacity(build_e1(), outcome.violated) < -v.total(outcome.violated)
    assert outcome.serialize().startswith("INFEASIBLE violated=")
    assert "<" not in outcome.serialize()


def test_infeasible_verdict_reduces_once(monkeypatch):
    import tempoflow.breakpoints as breakpoints_mod
    import tempoflow.expansion as expansion_mod
    import tempoflow.feasibility as feasibility_mod
    import tempoflow.gadget as gadget_mod
    import tempoflow.model as model_mod
    import tempoflow.reductions as reductions_mod
    import tempoflow.solvers as solvers_mod

    modules = (
        model_mod, reductions_mod, breakpoints_mod, gadget_mod, expansion_mod, feasibility_mod,
        solvers_mod,
    )
    calls = Counter()
    for module, name in (
        (gadget_mod, "hoppe_tardos_star"),
        (gadget_mod, "canonical_reduction"),
        (solvers_mod, "hoppe_tardos_star"),
        (solvers_mod, "canonical_reduction"),
        (feasibility_mod, "canonical_reduction"),
        (feasibility_mod, "cten_breakpoints"),
        (feasibility_mod, "build_cten"),
        (feasibility_mod, "max_flow"),
        (gadget_mod._PinGraph, "fold"),
        # Every module that looks these up, so no call goes uncounted.
        *((m, "merged_pieces") for m in modules if hasattr(m, "merged_pieces")),
        *((m, "live_windows") for m in modules if hasattr(m, "live_windows")),
        *((m, "to_one_shot") for m in modules if hasattr(m, "to_one_shot")),
    ):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    # A chain whose middle node is no anchor, so its set is enumerated.
    net = make_network(
        ("s", "m", "d"),
        {("s", "m"): ([(0, 3, 1)], 1), ("m", "d"): ([(0, 3, 1)], 1)},
        {"s"},
        {"d"},
        3,
    )
    v = DemandVector({"s": -3, "d": 3})
    outcome = dttn_feasible(net, 3, v)
    assert not outcome.feasible
    # m is settled: its windows' local points, not Gamma*(m) = (0, 1, 2, 3).
    assert outcome.breakpoints["m"] == (0, 1, 3)
    # No gadget network, no gadget pin graph and no one-shot split on the
    # verdict path; each original edge's pieces are merged and split into
    # live windows once, and the super terminals have no edges to merge.
    assert calls == {
        "cten_breakpoints": 1,
        "build_cten": 1,
        "max_flow": 1,
        "merged_pieces": len(net.edges),
        "live_windows": len(net.edges),
    }
    full = attach_super_terminals(net, v)
    assert gamma_breakpoints(full, ("m",)) == {"m": (0, 1, 2, 3)}


def test_capacity_oT_e1_source_side():
    # {s} alone can deliver at most the two departures in the window
    net = build_e1()
    assert capacity_oT_ten(net, frozenset({"s"})) == 2


def test_capacity_oT_matches_reported_certificate():
    v = DemandVector({"s": -3, "d": 3})
    outcome = feas_e1(v)
    assert not outcome.feasible
    fast = fast_capacity(build_e1(), outcome.violated)
    assert fast == outcome.o_T == 2


def test_capacity_oT_empty_and_full():
    net = build_e1()
    assert fast_capacity(net, frozenset()) == 0
    assert fast_capacity(net, net.terminals) == 0


def test_capacity_rejects_non_terminals():
    net = make_network(
        ("s", "m", "d"),
        {("s", "m"): ([(0, 3, 1)], 1), ("m", "d"): ([(0, 3, 1)], 1)},
        {"s"},
        {"d"},
        3,
    )
    v = DemandVector({"s": -3, "d": 3})
    bps = dttn_feasible(net, 3, v).breakpoints
    a = frozenset({"s", "m"})
    for call in (
        lambda: capacity_oT(net, bps, a),
        lambda: capacity_oT_ten(net, a),
        lambda: fast_capacity(net, a),
    ):
        with pytest.raises(ModelError, match=r"not terminals: \['m'\]"):
            call()


def test_capacity_modes_agree(corpus):
    for parsed in corpus[:30]:
        net, v = parsed.network, parsed.demands
        a = frozenset(s for s in net.sources if v.get(s) < 0)
        assert fast_capacity(net, a) == capacity_oT_ten(net, a)


def test_claim_identity_on_infeasible(corpus):
    """|f| - v(A cap S-) + v((S \\ A) cap S+) equals the restricted max flow."""
    checked = 0
    for parsed in corpus:
        net, v = parsed.network, parsed.demands
        outcome = dttn_feasible(net, net.horizon, v)
        if outcome.feasible:
            continue
        a = outcome.violated
        assert a <= net.terminals
        value = capacity_oT(net, outcome.breakpoints, a)
        expected = outcome.flow_value - v.total(a & net.sinks) + v.total(net.sources - a)
        assert value == expected
        assert outcome.o_T == value == capacity_oT_ten(net, a)
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def check_verdict_against_original_ten(net, v):
    outcome = dttn_feasible(net, net.horizon, v)
    ten_value, _ = max_flow(build_ten(attach_super_terminals(net, v)))
    assert outcome.flow_value == ten_value
    if not outcome.feasible:
        assert outcome.violated <= net.terminals
        assert outcome.o_T == capacity_oT_ten(net, outcome.violated)
        assert outcome.o_T < outcome.neg_v


@settings(max_examples=60, deadline=None)
@given(demand_instances())
def test_verdict_flow_equals_original_ten(instance):
    """The original network's cTEN has the TEN's max-flow value and certificate."""
    check_verdict_against_original_ten(*instance)


@settings(max_examples=60, deadline=None)
@given(demand_instances(inf=True))
def test_verdict_flow_equals_original_ten_with_inf(instance):
    """The same with INF capacities, which the verdict path accepts."""
    check_verdict_against_original_ten(*instance)
