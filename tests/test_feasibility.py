from collections import Counter

from tempoflow import (
    DemandVector,
    canonical_reduction,
    capacity_oT,
    capacity_oT_ten,
    cten_breakpoints,
    dttn_feasible,
    feas,
    hoppe_tardos_star,
    restrict_for_set,
    to_one_shot,
    verify_violated,
)
from tempoflow.model import INF

from conftest import build_e1


def reduced_e1(v):
    one_shot, _ = to_one_shot(build_e1())
    return hoppe_tardos_star(one_shot, v)


def fast_capacity(reduced, v2, a):
    canon = canonical_reduction(reduced, v2)
    return capacity_oT(canon, cten_breakpoints(canon), a)


def test_zero_demand_feasible():
    reduced, v2 = reduced_e1(DemandVector({"s": 0, "d": 0}))
    assert feas(reduced, v2).feasible


def test_e1_two_units_feasible():
    reduced, v2 = reduced_e1(DemandVector({"s": -2, "d": 2}))
    outcome = feas(reduced, v2)
    assert outcome.feasible
    assert outcome.serialize() == "FEASIBLE"


def test_e1_three_units_infeasible_with_certificate():
    reduced, v2 = reduced_e1(DemandVector({"s": -3, "d": 3}))
    outcome = feas(reduced, v2)
    assert not outcome.feasible
    assert outcome.violated and "s" in outcome.violated
    assert outcome.o_T < outcome.neg_v
    assert verify_violated(reduced, v2, outcome.violated)
    assert outcome.serialize().startswith("INFEASIBLE violated=")
    assert "<" not in outcome.serialize()


def test_infeasible_verdict_reduces_once(monkeypatch):
    import tempoflow.breakpoints as breakpoints_mod
    import tempoflow.expansion as expansion_mod
    import tempoflow.feasibility as feasibility_mod

    calls, pin_starts = Counter(), Counter()
    for module, name in (
        (feasibility_mod, "canonical_reduction"),
        (feasibility_mod, "cten_breakpoints"),
        (feasibility_mod, "build_cten"),
        (feasibility_mod, "max_flow"),
        (expansion_mod, "merged_pieces"),
        (breakpoints_mod._PinGraph, "pin_sums"),
    ):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "pin_sums":
                pin_starts[args[1]] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    outcome = dttn_feasible(build_e1(), 3, DemandVector({"s": -3, "d": 3}))
    assert not outcome.feasible
    assert pin_starts and set(pin_starts.values()) == {1}
    assert calls == {
        "canonical_reduction": 1,
        "cten_breakpoints": 1,
        "build_cten": 1,
        "max_flow": 1,
        "merged_pieces": len(outcome.canonical.net.edges),
        "pin_sums": len(pin_starts),
    }


def test_restrict_for_set_capacities():
    reduced, v2 = reduced_e1(DemandVector({"s": -3, "d": 3}))
    canon = canonical_reduction(reduced, v2)
    sources = {j for (i, j) in canon.net.edges if i == canon.s_star}
    a = frozenset({"s"})
    restricted = restrict_for_set(canon, a)
    for s in sources:
        cap = restricted.net.edges[(canon.s_star, s)].capacity(0)
        assert cap == (INF if s in a else 0)


def test_capacity_oT_e1_source_side():
    # {s} alone can deliver at most the two departures in the window
    net = build_e1()
    v = DemandVector({"s": -3, "d": 3})
    assert capacity_oT_ten(net, v, frozenset({"s"})) == 2


def test_capacity_oT_matches_reported_certificate():
    reduced, v2 = reduced_e1(DemandVector({"s": -3, "d": 3}))
    outcome = feas(reduced, v2)
    assert not outcome.feasible
    fast = fast_capacity(reduced, v2, outcome.violated)
    assert fast == outcome.o_T == 4


def test_capacity_oT_empty_and_full():
    reduced, v2 = reduced_e1(DemandVector({"s": -2, "d": 2}))
    terminals = frozenset(reduced.terminals)
    assert fast_capacity(reduced, v2, frozenset()) == 0
    assert fast_capacity(reduced, v2, terminals) == 0


def test_capacity_modes_agree(corpus):
    for parsed in corpus[:30]:
        net, v = parsed.network, parsed.demands
        one_shot, _ = to_one_shot(net)
        reduced, v2 = hoppe_tardos_star(one_shot, v)
        a = frozenset(s for s in reduced.sources if v2.get(s) < 0)
        fast = fast_capacity(reduced, v2, a)
        slow = capacity_oT_ten(reduced, v2, a)
        assert fast == slow


def test_claim_identity_on_infeasible(corpus):
    """|f| - v(A cap S-) + v((S \\ A) cap S+) equals the restricted max flow."""
    from tempoflow import build_cten, max_flow

    checked = 0
    for parsed in corpus:
        net, v = parsed.network, parsed.demands
        outcome = dttn_feasible(net, net.horizon, v)
        if outcome.feasible:
            continue
        canon = outcome.canonical
        a = outcome.violated
        reduced_sinks = {i for (i, j) in canon.net.edges if j == canon.d_star}
        reduced_sources = {j for (i, j) in canon.net.edges if i == canon.s_star}
        v2 = {
            s: -canon.net.edges[(canon.s_star, s)].capacity(0) for s in reduced_sources
        } | {d: canon.net.edges[(d, canon.d_star)].capacity(canon.horizon) for d in reduced_sinks}
        restricted = restrict_for_set(canon, a)
        value, _ = max_flow(build_cten(restricted.net, outcome.breakpoints))
        expected = (
            outcome.flow_value
            - sum(v2[d] for d in a & reduced_sinks)
            + sum(v2[s] for s in (reduced_sources - a))
        )
        assert value == expected
        assert outcome.o_T == value
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10
