"""Acceptance gate: eleven release criteria, exercised end to end.

The criteria pair the fast condensed-expansion pipeline against two
independent references: a networkx-based full expansion built directly
from the network semantics (conftest), and the package's own full
expansion used as a second opinion on reduced networks.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from tempoflow import (
    DemandVector,
    EdgeFn,
    OracleBudgetError,
    PiecewiseConstFn,
    attach_super_terminals,
    build_cten,
    build_ten,
    canonical_breakpoints,
    canonical_reduction,
    capacity_oT,
    dttn_feasible,
    extract_flow,
    gadget_breakpoints,
    hoppe_tardos_star,
    max_flow,
    max_flow_over_time,
    quickest_transshipment,
    residual_reachable,
    to_one_shot,
    validate_flow,
)
from tempoflow.reductions import D_STAR, S_STAR
from tempoflow.solvers import BoundedSearchError, _at_horizon

from conftest import (
    build_fig4,
    check_max_flow,
    cten_capacity,
    make_network,
    oracle_feasible,
    oracle_max_flow_over_time,
)
from cutlab import (
    CutFunction,
    canonicalize_min_cut,
    cut_cost,
    forbidden_set,
    gamma_star,
    min_cut_times,
    shift_cut,
)


@pytest.fixture(scope="session")
def fast_verdicts(corpus):
    """dttn_feasible over the whole corpus, with total wall time."""
    t0 = time.perf_counter()
    outcomes = [
        dttn_feasible(p.network, p.network.horizon, p.demands) for p in corpus
    ]
    return outcomes, time.perf_counter() - t0


@pytest.fixture(scope="session")
def long_verdicts(long_corpus):
    """dttn_feasible over the T in 20..60 slice."""
    return [dttn_feasible(p.network, p.network.horizon, p.demands) for p in long_corpus]


def reduce_instance(parsed):
    net, v = parsed.network, parsed.demands
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, v)
    canon = canonical_reduction(reduced, v2)
    return reduced, v2, canon


def certifies_infeasibility(parsed, a) -> bool:
    """A's capacity over the gadget form's sets is below -v(A)."""
    net, v = parsed.network, parsed.demands
    return capacity_oT(net, gadget_breakpoints(net), a) < -v.total(a)


def test_criterion_01_depicted_network_reproduction():
    start = time.perf_counter()
    net = build_fig4()
    ten_value, _ = max_flow(build_ten(net))
    coarse = {i: (0, 1, 4) for i in net.nodes}
    cten_value, _ = max_flow(build_cten(net, coarse))
    elapsed = time.perf_counter() - start
    assert ten_value == 0
    assert cten_value == 1
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence(corpus, fast_verdicts):
    outcomes, elapsed = fast_verdicts
    for parsed, outcome in zip(corpus, outcomes):
        assert outcome.feasible == oracle_feasible(parsed.network, parsed.demands), (
            f"verdict mismatch on {parsed.network.nodes}"
        )
    assert len(outcomes) >= 500
    assert elapsed < 60.0


def test_criterion_03_violated_set_soundness(corpus, fast_verdicts):
    outcomes, _ = fast_verdicts
    infeasible = 0
    for parsed, outcome in zip(corpus, outcomes):
        if outcome.feasible:
            continue
        infeasible += 1
        assert outcome.o_T < outcome.neg_v  # strict, exact integers
        assert certifies_infeasibility(parsed, outcome.violated)
    assert infeasible > 0


def test_criterion_02_oracle_equivalence_long_horizon(long_corpus, long_verdicts):
    """The same verdicts where the sets coarsen: most cTENs are smaller than the TEN."""
    smaller = 0
    for parsed, outcome in zip(long_corpus, long_verdicts):
        net, v = parsed.network, parsed.demands
        assert outcome.feasible == oracle_feasible(net, v)
        ten = build_ten(attach_super_terminals(net, v))
        smaller += len(outcome.graph.vertices) < len(ten.vertices)
    assert smaller > len(long_corpus) // 2


def test_criterion_03_violated_set_soundness_long_horizon(long_corpus, long_verdicts):
    infeasible = 0
    for parsed, outcome in zip(long_corpus, long_verdicts):
        if outcome.feasible:
            continue
        infeasible += 1
        assert outcome.o_T < outcome.neg_v
        assert certifies_infeasibility(parsed, outcome.violated)
    assert infeasible >= 20


def test_verdict_flows_are_maximum(fast_verdicts, long_verdicts):
    """Every verdict cTEN's max flow checks out, and its side is the residual one.

    ``feas`` reads the violated set off the side that ``max_flow`` returns,
    so that side must equal the independent ``residual_reachable``.
    """
    outcomes, _ = fast_verdicts
    for outcome in outcomes + long_verdicts:
        graph = outcome.graph
        value, flow = max_flow(graph)
        assert value == outcome.flow_value
        check_max_flow(graph, value, flow)
        assert flow.side == residual_reachable(graph, flow)


def test_criterion_04_condensation_exactness(corpus):
    rng = random.Random(404)
    perturbed_checked = 0
    for parsed in corpus:
        _, _, canon = reduce_instance(parsed)
        T = canon.horizon
        ten_value, _ = max_flow(build_ten(canon.net))
        bps = canonical_breakpoints(canon, canon.net.nodes)
        cten_value, _ = max_flow(build_cten(canon.net, bps))
        assert cten_value == ten_value

        if perturbed_checked < 200:
            lossy = {
                i: tuple(
                    t for t in pts if t in (0, T) or rng.random() < 0.5
                )
                for i, pts in bps.items()
            }
            lossy_value, _ = max_flow(build_cten(canon.net, lossy))
            assert lossy_value >= ten_value
            perturbed_checked += 1
    assert perturbed_checked >= 200


def test_criterion_04_original_network_condensation(corpus, fast_verdicts):
    """The verdict's cTEN of the original network is exact, and not trivially.

    Its value equals the TEN's; dropping interior breakpoints never lowers
    it (a coarser partition only merges TEN vertices) and must raise it
    somewhere in the corpus, or the sets would not be doing any work.
    """
    outcomes, _ = fast_verdicts
    rng = random.Random(404)
    raised = 0
    for parsed, outcome in zip(corpus, outcomes):
        net, v = parsed.network, parsed.demands
        T = net.horizon
        full = attach_super_terminals(net, v)
        ten_value, _ = max_flow(build_ten(full))
        assert outcome.flow_value == ten_value
        lossy = {
            i: tuple(t for t in pts if t in (0, T) or rng.random() < 0.5)
            for i, pts in outcome.breakpoints.items()
        }
        lossy_value, _ = max_flow(build_cten(full, lossy))
        assert lossy_value >= ten_value
        raised += lossy_value > ten_value
    assert raised >= 1


def diversify_min_cut(ten, values, movable, horizon, rng, steps):
    """Random walk over equal-cost single-node reassignments.

    Each accepted move keeps the cut cost, so every visited state is again
    a minimum cut; the walk spreads cut times into the interior, which the
    residual-derived cut (mostly boundary values) never exhibits.  Cost
    changes are evaluated on the arcs incident to the moved node only.
    """
    labels = ten.vertices
    incident = {}
    for arc in zip(ten.tails, ten.heads, ten.caps):
        (i, _), (j, _) = labels[arc[0]], labels[arc[1]]
        incident.setdefault(i, []).append(arc)
        if j != i:
            incident.setdefault(j, []).append(arc)

    def local_cost(vals, node):
        total = 0
        for tail, head, cap in incident.get(node, ()):
            (i, (t, _)), (j, (t2, _)) = labels[tail], labels[head]
            if t >= vals[i] and t2 < vals[j]:
                total += cap
        return total

    for _ in range(steps):
        i = rng.choice(movable)
        t = rng.randint(0, horizon + 1)
        trial = {**values, i: t}
        if local_cost(trial, i) == local_cost(values, i):
            values = trial
        yield values


def test_criterion_05_cut_canonicalization(corpus):
    rng = random.Random(505)
    harvested = 0
    identity_pairs = 0
    for parsed in corpus:
        if harvested >= 220 and identity_pairs >= 1000:
            break
        _, _, canon = reduce_instance(parsed)
        T = canon.horizon
        ten = build_ten(canon.net)
        value, flow = max_flow(ten)
        phi = min_cut_times(ten, flow, T)
        canonical = canonicalize_min_cut(canon, phi, ten)
        assert cut_cost(ten, canonical) == value
        for i, g in gamma_star(canon, canon.net.nodes).items():
            assert canonical[i] in g
        harvested += 1

        movable = [
            n for n in canon.net.nodes if n not in (S_STAR, D_STAR)
        ]
        walk = diversify_min_cut(ten, dict(phi.values), movable, T, rng, 150)
        for step, values in enumerate(walk, start=1):
            if step % 25 != 0 or identity_pairs >= 1200:
                continue
            cut = CutFunction(dict(values), T)
            assert cut_cost(ten, cut) == value  # the walk stayed on min cuts
            singles = [
                i
                for i in movable
                if 0 < cut[i] < T + 1
                and i not in canon.ps_plus
                and i not in canon.ps_minus
                and cut[i] not in forbidden_set(canon, cut, frozenset({i}), i)
            ]
            # a union of valid singletons is valid: dropping neighbors into
            # C only shrinks each member's forbidden set
            sets = [frozenset({i}) for i in singles]
            if len(singles) >= 2:
                for _ in range(2):
                    sets.append(
                        frozenset(rng.sample(singles, rng.randint(2, len(singles))))
                    )
            for c in sets:
                up = shift_cut(cut, c, +1)
                down = shift_cut(cut, c, -1)
                assert cut_cost(ten, up) == cut_cost(ten, down) == value
                identity_pairs += 1
    assert harvested >= 200
    assert identity_pairs >= 1000


def test_criterion_06_closed_form_capacity():
    rng = random.Random(606)
    for _ in range(10_000):
        T = rng.randint(0, 12)
        bounds = sorted({0, T + 1, *rng.sample(range(1, T + 2), min(T, rng.randint(0, 3)))})
        caps, tts = [], []
        for a, b in zip(bounds, bounds[1:]):
            caps.append((a, b - 1, rng.randint(0, 5)))
            tts.append((a, b - 1, rng.randint(0, 4)))
        fn = EdgeFn(PiecewiseConstFn(tuple(caps)), PiecewiseConstFn(tuple(tts)))
        a = rng.randint(0, T)
        b = rng.randint(a, T)
        a2 = rng.randint(0, T)
        b2 = rng.randint(a2, T)
        brute = sum(
            fn.capacity(t)
            for t in range(a, b + 1)
            if a2 <= t + fn.travel_time(t) <= b2
        )
        assert cten_capacity(fn, (a, b), (a2, b2)) == brute


def scale_family(mu: int):
    """Two terminals, one edge whose capacity alternates every step."""
    T = mu - 1
    caps = [(t, t, 1 + (t % 2)) for t in range(T + 1)]
    net = make_network(
        ("s", "d"), {("s", "d"): (caps, 1)}, {"s"}, {"d"}, T
    )
    return net, DemandVector({"s": -1, "d": 1})


def test_criterion_07_condensed_size_bounds(capsys):
    from tempoflow import compute_mu

    ratios_nodes, ratios_arcs = [], []
    for mu in (10, 20, 40, 80, 160):
        net, v = scale_family(mu)
        assert compute_mu(net) == mu
        one_shot, _ = to_one_shot(net)
        reduced, v2 = hoppe_tardos_star(one_shot, v)
        canon = canonical_reduction(reduced, v2)
        cten = build_cten(canon.net, canonical_breakpoints(canon, canon.net.nodes))
        n = len(net.nodes)
        ratios_nodes.append(len(cten.vertices) / mu)
        ratios_arcs.append(len(cten.arcs) / (n * mu))
    c1, c2 = max(ratios_nodes), max(ratios_arcs)
    assert max(ratios_nodes) / min(ratios_nodes) < 2.0
    assert max(ratios_arcs) / min(ratios_arcs) < 2.0
    with capsys.disabled():
        print(
            f"\n[criterion 7] condensed size constants: "
            f"nodes <= {c1:.1f} * mu, arcs <= {c2:.1f} * n * mu"
        )


def test_criterion_07_original_network_size_bounds(capsys):
    """Size of the verdict's cTEN, which is built on the original network.

    On the one-edge family both nodes are pseudoterminals of the canonical
    form, so their sets are {0} and the graph has the same size at every
    mu.  Behind a middle node m, the alternating capacities reach m's set,
    so the graph grows with mu, but linearly.
    """
    from tempoflow import compute_mu

    sizes = set()
    ratios_nodes, ratios_arcs = [], []
    for mu in (10, 20, 40, 80, 160):
        net, v = scale_family(mu)
        sizes.add(len(dttn_feasible(net, net.horizon, v).graph.vertices))
        T = mu - 1
        caps = [(t, t, 1 + (t % 2)) for t in range(T + 1)]
        chain = make_network(
            ("s", "m", "d"),
            {("s", "m"): (caps, 1), ("m", "d"): ([(0, T, 2)], 2)},
            {"s"},
            {"d"},
            T,
        )
        mu_chain = compute_mu(chain)
        cten = dttn_feasible(chain, T, v).graph
        ratios_nodes.append(len(cten.vertices) / mu_chain)
        ratios_arcs.append(len(cten.arcs) / (len(chain.nodes) * mu_chain))
    assert len(sizes) == 1
    assert max(ratios_nodes) / min(ratios_nodes) < 2.0
    assert max(ratios_arcs) / min(ratios_arcs) < 2.0
    with capsys.disabled():
        print(
            f"\n[criterion 7, original network] one edge: {sizes.pop()} vertices at every mu; "
            f"chain: nodes <= {max(ratios_nodes):.1f} * mu, "
            f"arcs <= {max(ratios_arcs):.1f} * n * mu"
        )


def test_criterion_08_quickest_against_linear_scan(corpus):
    import tempoflow.solvers as solvers_mod

    cap = 32
    probes = 0
    original = solvers_mod.dttn_feasible

    def counting(*args, **kwargs):
        nonlocal probes
        probes += 1
        return original(*args, **kwargs)

    solvers_mod.dttn_feasible = counting
    try:
        for parsed in corpus:
            net, v = parsed.network, parsed.demands
            oracle_t = next(
                (
                    t
                    for t in range(cap + 1)
                    if oracle_feasible(_at_horizon(net, t), v)
                ),
                None,
            )
            probes = 0
            if oracle_t is None:
                with pytest.raises(BoundedSearchError):
                    quickest_transshipment(net, v, cap)
                continue
            t_star, _ = quickest_transshipment(net, v, cap)
            assert t_star == oracle_t
            if t_star >= 1:
                assert probes <= 2 * math.ceil(math.log2(t_star)) + 2
    finally:
        solvers_mod.dttn_feasible = original


def test_criterion_09_max_flow_over_time(corpus):
    checked = 0
    for parsed in corpus:
        net = parsed.network
        if len(net.sources) != 1 or len(net.sinks) != 1:
            continue
        value, _ = max_flow_over_time(net, net.horizon)
        assert value == oracle_max_flow_over_time(net)
        checked += 1
    assert checked >= 100


def test_criterion_09_max_flow_over_time_long_horizon(long_corpus):
    checked = 0
    for parsed in long_corpus:
        net = parsed.network
        if len(net.sources) != 1 or len(net.sinks) != 1:
            continue
        value, _ = max_flow_over_time(net, net.horizon)
        assert value == oracle_max_flow_over_time(net)
        checked += 1
    assert checked >= 40


def test_criterion_10_extracted_flows_integral_and_valid(corpus, fast_verdicts):
    outcomes, _ = fast_verdicts
    checked = 0
    for parsed, outcome in zip(corpus, outcomes):
        if not outcome.feasible:
            continue
        net, v = parsed.network, parsed.demands
        flow = extract_flow(net, net.horizon, v)
        assert all(isinstance(a, int) for a in flow.flows.values())
        assert validate_flow(net, flow, v).ok
        checked += 1
    assert checked > 0


def test_criterion_11_horizon_independence():
    T = 1_000_000
    third = T // 3
    net = make_network(
        ("s", "m", "d"),
        {
            ("s", "m"): ([(0, third, 2), (third + 1, 2 * third, 0), (2 * third + 1, T, 1)], 1),
            ("m", "d"): ([(0, T, 1)], 2),
        },
        {"s"},
        {"d"},
        T,
    )
    v = DemandVector({"s": -5, "d": 5})
    start = time.perf_counter()
    outcome = dttn_feasible(net, T, v)
    elapsed = time.perf_counter() - start
    assert outcome.feasible
    assert elapsed < 5.0
    with pytest.raises(OracleBudgetError):
        build_ten(attach_super_terminals(net, v))
