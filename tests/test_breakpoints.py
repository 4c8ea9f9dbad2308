import random

import pytest
from hypothesis import given, settings

from tempoflow import (
    INF,
    MAX_INT,
    DemandVector,
    EdgeFn,
    EnumerationCapError,
    InstanceSpec,
    PiecewiseConstFn,
    TemporalNetwork,
    attach_super_terminals,
    build_ten,
    capacity_oT_ten,
    canonical_breakpoints,
    canonical_reduction,
    cten_breakpoints,
    dttn_feasible,
    feas,
    gadget_breakpoints,
    gamma_breakpoints,
    generate_instance,
    hoppe_tardos_star,
    max_flow,
    max_flow_over_time,
    to_one_shot,
)
import tempoflow.breakpoints as breakpoints_mod
from tempoflow.breakpoints import settled_breakpoints
from tempoflow.reductions import D_STAR, S_STAR
from tempoflow.solvers import _at_horizon

from conftest import build_chain, build_e1, make_network
from cutlab import gamma_star
from strategies import temporal_networks


def chain_canonical():
    """s* -> p -> q -> r -> d* with tau(pq) = 2, tau(qr) = 3, T = 10."""
    net = make_network(
        ("p", "q", "r"),
        {
            ("p", "q"): ([(0, 10, 1)], 2),
            ("q", "r"): ([(0, 10, 1)], 3),
        },
        {"p"},
        {"r"},
        10,
    )
    v = DemandVector({"p": -1, "r": 1})
    from tempoflow import attach_super_terminals, classify_roles
    from tempoflow.gadget import CanonicalTemporalNetwork

    full = attach_super_terminals(net, v).materialize()
    return CanonicalTemporalNetwork(full, *classify_roles(full))


def gamma(canon, i):
    """Gamma(i): Gamma* of a node that is no pseudo-pseudosink."""
    assert i not in canon.pps_minus
    return gamma_star(canon, (i,))[i]


def test_chain_gamma_interior_node():
    canon = chain_canonical()
    got = gamma(canon, "q")
    # the boundary-offset sums 0 +- 2 and 11 +- 3 must all survive clamping
    assert {0, 2, 8, 11} <= set(got)
    assert got == (0, 2, 3, 8, 9, 11)


def test_chain_gamma_terminals_trivial():
    canon = chain_canonical()
    assert gamma(canon, "p") == (0, 11)
    assert gamma(canon, "r") == (0, 11)


def test_breakpoints_drop_top():
    """A_i is Gamma*(i) within [0, T]: T + 1 dropped and nothing forced in."""
    canon = chain_canonical()
    bps = canonical_breakpoints(canon, canon.net.nodes)
    assert bps["q"] == (0, 2, 3, 8, 9)  # 11 dropped, 10 not in Gamma(q)
    assert bps["p"] == (0,)


def test_gamma_star_defaults_to_gamma():
    """Without pseudo-pseudosinks Gamma* is Gamma: q keeps its pin-path sums."""
    canon = chain_canonical()
    assert not canon.pps_minus
    assert gamma_star(canon, canon.net.nodes)["q"] == (0, 2, 3, 8, 9, 11)


def test_gamma_star_pps_unions_in_neighbors():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    (pps,) = sorted(canon.pps_minus)
    preds = sorted(e[0] for e in canon.net.edges if e[1] == pps)
    union = set(gamma(canon, preds[0])) | set(gamma(canon, preds[1]))
    assert set(gamma_star(canon, (pps,))[pps]) == union


def test_all_sets_within_range():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    T = canon.horizon
    gammas = gamma_star(canon, canon.net.nodes)
    for g in gammas.values():
        assert all(0 <= t <= T + 1 for t in g)
        assert 0 in g and T + 1 in g
    bps = canonical_breakpoints(canon, canon.net.nodes)
    for i, pts in bps.items():
        assert pts == tuple(t for t in gammas[i] if t <= T)


def test_enumeration_cap_enforced(monkeypatch):
    import tempoflow.breakpoints as breakpoints_mod

    canon = chain_canonical()
    monkeypatch.setattr(breakpoints_mod, "PATH_CAP", 0)
    with pytest.raises(EnumerationCapError):
        gamma(canon, "q")


def test_long_chain_sets_agree():
    """Pin paths thousands of steps long: the shared search keeps its own stack."""
    net = build_chain(1500)
    v = DemandVector({"s": -1, "d": 1})
    canon = canonical_reduction(*hoppe_tardos_star(to_one_shot(net)[0], v))
    got = cten_breakpoints(net, ("m0",))
    assert got == canonical_breakpoints(canon, ("m0",))
    assert got["m0"] == (0, 2, 4)


def gadget_sets(net, v, nodes):
    """Gamma* of ``nodes`` on the gadget form within [0, T], as ``gamma_breakpoints`` clips."""
    one_shot, _ = to_one_shot(net)
    canon = canonical_reduction(*hoppe_tardos_star(one_shot, v))
    T = canon.horizon
    return {i: tuple(t for t in g if t <= T) for i, g in gamma_star(canon, nodes).items()}


def one_shot_sets(net, v):
    """The Gamma* reading of the windows, which the gadget form's sets must equal."""
    full = attach_super_terminals(net, v)
    return gamma_breakpoints(full, full.nodes), full.nodes


def local_sets(net):
    """Settled nodes and their local points, derived here from the live windows.

    A settled node has a live in- and out-window, is no terminal, and has
    no live neighbour that also has both.  Its points are 0, a and b + 1
    of each out-window, and a + tau and b + tau + 1 of each in-window,
    within [0, T].
    """
    live = {e: w for e, w in net.windows().items() if w}
    tails, heads = {i for i, _ in live}, {j for _, j in live}
    searched = (tails & heads) - net.terminals
    paired = {n for e in live if set(e) <= searched for n in e}
    points = {n: {0} for n in searched - paired}
    for (i, j), windows in live.items():
        for _, a, b, _, tau in windows:
            if i in points:
                points[i] |= {a, b + 1}
            if j in points:
                points[j] |= {a + tau, b + tau + 1}
    T = net.horizon
    return {n: tuple(sorted(t for t in pts if t <= T)) for n, pts in points.items()}


def test_cten_breakpoints_match_gamma_star(corpus):
    """The one-shot sets equal the gadget form's, node for node, on the corpus.

    On the first 100 instances the batched gadget pass is also checked
    against the per-node definition over every canonical node.
    """
    for k, parsed in enumerate(corpus):
        net, v = parsed.network, parsed.demands
        bps, nodes = one_shot_sets(net, v)
        reference = gadget_sets(net, v, nodes)
        assert bps == reference
        # The reference reads no capacity and no demand: at unit capacities
        # and zero demands it is the same.
        assert gadget_breakpoints(net) == reference
        if k < 100:
            canon = canonical_reduction(*hoppe_tardos_star(to_one_shot(net)[0], v))
            every = canon.net.nodes
            assert canonical_breakpoints(canon, every) == gadget_sets(net, v, every)


def test_verdict_cten_gives_anchors_one_vertex(corpus, long_corpus):
    """Only Gamma*(i) within [0, T], or a settled node's local points, start intervals.

    s*, d*, every terminal and every node lacking a live in- or out-window
    have one vertex.  On every other node that is not settled, T starts an
    interval exactly when the gadget form's Gamma*(i) holds T; a settled
    node's interval starts are its local points.
    """
    for parsed in corpus + long_corpus:
        net, v = parsed.network, parsed.demands
        T = net.horizon
        graph = dttn_feasible(net, T, v).graph
        live = [e for e, windows in net.windows().items() if windows]
        tails, heads = {a for a, _ in live}, {b for _, b in live}
        lone = set(net.nodes) - (tails & heads)
        for i in lone | net.terminals | {S_STAR, D_STAR}:
            assert len(graph.ranges[i]) == 1, i
        one_shot, _ = to_one_shot(net)
        canon = canonical_reduction(*hoppe_tardos_star(one_shot, v))
        gammas = gamma_star(canon, tuple(graph.ranges))
        local = local_sets(net)
        for i, bounds in graph.bounds.items():
            if i in local:
                assert tuple(bounds[:-1]) == local[i], i
            else:
                assert (T in bounds[:-1]) == (T in gammas[i]), i


@settings(max_examples=80, deadline=None)
@given(temporal_networks())
def test_one_shot_sets_equal_gadget_sets(net):
    v = DemandVector({})
    bps, nodes = one_shot_sets(net, v)
    assert bps == gadget_sets(net, v, nodes)


@settings(max_examples=80, deadline=None)
@given(temporal_networks(inf=True))
def test_one_shot_sets_equal_gadget_sets_with_inf(net):
    """INF capacities, and a copy whose positive finite pieces are MAX_INT.

    The reference sets are derived at unit capacities, so neither needs a
    stand-in, though the copy's gadget demands u * (T + 1) overflow.
    """
    v = DemandVector({})
    wide = TemporalNetwork(
        net.nodes,
        {
            e: EdgeFn(
                PiecewiseConstFn(
                    tuple((a, b, MAX_INT if 0 < u < INF else u) for a, b, u in fn.capacity.pieces)
                ),
                fn.travel_time,
            )
            for e, fn in net.edges.items()
        },
        net.sources,
        net.sinks,
        net.horizon,
    )
    for copy in (net, wide):
        bps, _ = one_shot_sets(copy, v)
        assert bps == gadget_breakpoints(copy)


@pytest.mark.parametrize(
    "net, v",
    [
        (build_e1(), DemandVector({"s": -2, "d": 2})),
        (
            make_network(
                ("p", "q", "r"),
                {("p", "q"): ([(0, 4, 1)], 0), ("q", "r"): ([(0, 4, 2)], [(0, 1, 0), (2, 4, 1)])},
                {"p"},
                {"r"},
                4,
            ),
            DemandVector({"p": -1, "r": 1}),
        ),
        (
            make_network(
                ("s", "a", "b", "d"),
                {("s", "a"): ([(0, 5, 1)], 0), ("a", "b"): ([(0, 5, 1)], 0), ("s", "d"): ([(0, 5, 1)], 1)},
                {"s"},
                {"d"},
                5,
            ),
            DemandVector({"s": -1, "d": 1}),
        ),
    ],
    ids=["e1", "chain", "no-out-edge"],
)
def test_sets_at_horizon_zero(net, v):
    """At T = 0 every set is (0,), not (0, 0), on both readers.

    The chain's zero travel times keep its windows live, so q is searched;
    and b has an in-edge but no out-edge.
    """
    net = _at_horizon(net, 0)
    bps, nodes = one_shot_sets(net, v)
    assert bps == gadget_sets(net, v, nodes)
    assert set(bps.values()) == {(0,)}


@pytest.mark.parametrize("cap, raises", [(5, 200), (20, 125), (60, 18)])
def test_enumeration_cap_agrees_with_gadget_form(corpus, monkeypatch, cap, raises):
    """Both enumerators exceed a small PATH_CAP on the same instances."""
    import tempoflow.breakpoints as breakpoints_mod

    monkeypatch.setattr(breakpoints_mod, "PATH_CAP", cap)

    def capped(sets, *args):
        try:
            sets(*args)
        except EnumerationCapError:
            return True
        return False

    hits = 0
    for parsed in corpus:
        net, v = parsed.network, parsed.demands
        nodes = attach_super_terminals(net, v).nodes
        one_shot = capped(one_shot_sets, net, v)
        assert one_shot == capped(gadget_sets, net, v, nodes)
        hits += one_shot
    assert hits == raises


def relay_key_network(name=lambda n: n):
    """Edge a -> b with four live windows, beside nodes named like its relays."""
    nodes = ("a", "b", name("a>b#1"), name("a>b#1'"), "d")
    edges = {
        ("a", "b"): ([(0, 2, 1), (3, 5, 2), (6, 9, 1)], [(0, 4, 1), (5, 9, 2)]),
        ("a", name("a>b#1")): ([(0, 9, 1)], 1),
        (name("a>b#1"), name("a>b#1'")): ([(0, 4, 2), (5, 9, 0)], 2),
        (name("a>b#1'"), "d"): ([(0, 9, 1)], 1),
        ("b", "d"): ([(0, 9, 1)], 3),
    }
    return make_network(nodes, edges, {"a"}, {"d"}, 9)


# The least PATH_CAP at which each reader finishes, on corpus[::25] and
# then on the relay-key network: the most anchor-ending gadget paths that
# the gadget form counts from any one start.
LEAST_CAPS = (0, 19, 19, 0, 10, 46, 0, 19, 0, 79, 23, 10, 0, 15, 46, 0, 0, 0, 0, 0, 37)


def least_cap(monkeypatch, sets, *args) -> int:
    """The least PATH_CAP at which ``sets(*args)`` raises no EnumerationCapError."""
    import tempoflow.breakpoints as breakpoints_mod

    def finishes(cap):
        monkeypatch.setattr(breakpoints_mod, "PATH_CAP", cap)
        try:
            sets(*args)
        except EnumerationCapError:
            return False
        return True

    fails, cap = -1, 1  # a cap of ``fails`` raises; ``cap`` is the candidate
    while not finishes(cap):
        fails, cap = cap, 2 * cap
    while cap - fails > 1:
        mid = (fails + cap) // 2
        if finishes(mid):
            cap = mid
        else:
            fails = mid
    return cap


def test_path_counts_equal_gadget_form(corpus, monkeypatch):
    """Both readers charge the same paths: their least finishing caps are equal."""
    cases = [(p.network, p.demands) for p in corpus[::25]]
    cases.append((relay_key_network(), DemandVector({"a": -20, "d": 20})))
    got = []
    for net, v in cases:
        nodes = attach_super_terminals(net, v).nodes
        cap = least_cap(monkeypatch, one_shot_sets, net, v)
        assert cap == least_cap(monkeypatch, gadget_sets, net, v, nodes)
        got.append(cap)
    assert tuple(got) == LEAST_CAPS


def test_relay_keys_ignore_relay_like_names():
    """Nodes named like to_one_shot's relays change nothing but the names.

    Edge a -> b has four live windows, so the split puts relays on its
    pieces 1 to 3, and ``a>b#1`` is primed twice past the nodes that
    already carry those names.  The verdict path keys its relays by tuple
    and must agree with the same network under other names, and with the
    gadget form.
    """
    rename = {"a>b#1": "x", "a>b#1'": "y"}
    net, renamed = relay_key_network(), relay_key_network(lambda n: rename.get(n, n))
    assert "a>b#1''" in to_one_shot(net)[0].nodes
    v = DemandVector({"a": -20, "d": 20})
    got, want = dttn_feasible(net, 9, v), dttn_feasible(renamed, 9, v)
    assert not got.feasible
    assert (got.feasible, got.violated, got.o_T) == (want.feasible, want.violated, want.o_T)
    assert {rename.get(i, i): a for i, a in got.breakpoints.items()} == want.breakpoints
    full = attach_super_terminals(net, v)
    gammas = gamma_breakpoints(full, full.nodes)
    assert gammas == gadget_breakpoints(net)
    assert cten_breakpoints(full, full.nodes) == got.breakpoints
    assert all(set(a) <= set(gammas[i]) for i, a in got.breakpoints.items())


def general_instance(rng):
    """A seeded draw of a shape the layered generators never make.

    Sources feed inner nodes and sinks, inner nodes join each other in
    both directions, so the network can have cycles; capacities may be
    INF, and travel times and the horizon may be 0.
    """
    T = rng.choice((0, 1, 2, 3, 5, 8, 12))
    sources = [f"s{k}" for k in range(rng.randint(1, 2))]
    sinks = [f"d{k}" for k in range(rng.randint(1, 2))]
    inner = [f"m{k}" for k in range(rng.randint(1, 4))]
    pairs = [(a, b) for a in sources + inner for b in inner + sinks if a != b]

    def fn(values):
        cuts = sorted(rng.sample(range(1, T + 1), min(T, rng.randint(0, 2))))
        bounds = [0, *cuts, T + 1]
        return PiecewiseConstFn(
            tuple((a, b - 1, rng.choice(values)) for a, b in zip(bounds, bounds[1:]))
        )

    edges = {
        e: EdgeFn(fn((0, 1, 2, 3, INF)), fn((0, 0, 1, 2, 3)))
        for e in sorted(rng.sample(pairs, rng.randint(1, min(len(pairs), 8))))
    }
    net = TemporalNetwork(
        tuple(sources + inner + sinks), edges, frozenset(sources), frozenset(sinks), T
    )
    values = {t: 0 for t in sources + sinks}
    for _ in range(rng.randint(0, 2 * T + 2)):
        values[rng.choice(sources)] -= 1
        values[rng.choice(sinks)] += 1
    return net, DemandVector(values)


def answers(outcome):
    """What a verdict decides: feasibility, violated set, o_T and flow value."""
    return outcome.feasible, outcome.violated, outcome.o_T, outcome.flow_value


def test_settled_sets_exact_on_general_topologies(monkeypatch):
    """The verdict's smaller sets answer as the Gamma* sets and the full expansion do.

    On seeded draws with cycles, INF, tau = 0 and T = 0: the same
    verdict, violated set, o_T and flow value as over Gamma* and as over
    every step {0, ..., T} (the full expansion), o_T equal to the full
    expansion's capacity of A, and, on single-pair draws, the same max
    flow over time as over Gamma*.
    """
    import tempoflow.feasibility as feasibility_mod
    import tempoflow.solvers as solvers_mod

    def every_step(net, nodes):
        return {i: tuple(range(net.horizon + 1)) for i in nodes}

    rng = random.Random(27)
    differ = pairs = 0
    for _ in range(400):
        net, v = general_instance(rng)
        got = feas(net, v)
        for reader in (gamma_breakpoints, every_step):
            with monkeypatch.context() as patch:
                patch.setattr(feasibility_mod, "cten_breakpoints", reader)
                assert answers(got) == answers(feas(net, v))
        full = attach_super_terminals(net, v)
        assert got.flow_value == max_flow(build_ten(full))[0]
        if not got.feasible:
            assert got.o_T == capacity_oT_ten(net, got.violated)
        gammas = gamma_breakpoints(full, full.nodes)
        assert all(set(a) <= set(gammas[i]) for i, a in got.breakpoints.items())
        differ += got.breakpoints != gammas
        if len(net.sources) == len(net.sinks) == 1:
            pairs += 1
            value, _ = max_flow_over_time(net, net.horizon)
            with monkeypatch.context() as patch:
                patch.setattr(solvers_mod, "cten_breakpoints", gamma_breakpoints)
                assert value == max_flow_over_time(net, net.horizon)[0]
    # The draws reach the settled rule and the single-pair solver often.
    assert differ >= 40 and pairs >= 80


def test_settled_sets_exact_on_long_single_piece_draws(monkeypatch):
    """The verdict answers as Gamma* and the full expansion do where local sets are wrong.

    Layered draws with travel times up to 10 and one piece per edge, the
    shape where direction K's local points on every searched node give a
    wrong answer most often (20 of these 1,000 draws): same verdict,
    violated set, o_T and flow value as over Gamma*, and the full
    expansion's flow value.
    """
    import tempoflow.feasibility as feasibility_mod

    spec = InstanceSpec(7, 2, 2, 9, 60, 4, 10, 1, "random")
    differ = 0
    for seed in range(1000):
        parsed = generate_instance(spec, seed)
        net, v = parsed.network, parsed.demands
        got = feas(net, v)
        with monkeypatch.context() as patch:
            patch.setattr(feasibility_mod, "cten_breakpoints", gamma_breakpoints)
            gammas = feas(net, v)
        assert answers(got) == answers(gammas), seed
        assert got.flow_value == max_flow(build_ten(attach_super_terminals(net, v)))[0], seed
        differ += got.breakpoints != gammas.breakpoints
    # The settled rule changes the sets of most draws.
    assert differ >= 500


def test_pin_graph_built_only_for_unsettled_nodes(monkeypatch):
    """A call whose searched nodes all settle builds no pin graph; otherwise one.

    On s -> m -> d, m is the one searched node and it settles, so neither
    ``cten_breakpoints`` nor ``settled_breakpoints`` builds a pin graph.
    On the seed-107 draw n2 and n4 are searched neighbours, and one pin
    graph serves both.  ``gamma_breakpoints`` searches every searched
    node, so it builds one on both; its sets are the gadget form's.
    """
    built = []

    class Counted(breakpoints_mod._WindowPins):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(breakpoints_mod, "_WindowPins", Counted)

    def constructions(reader, *args):
        built.clear()
        reader(*args)
        return len(built)

    chain = make_network(
        ("s", "m", "d"), {("s", "m"): ([(0, 3, 1)], 1), ("m", "d"): ([(0, 3, 1)], 1)},
        {"s"}, {"d"}, 3,
    )
    parsed = generate_instance(InstanceSpec(7, 2, 2, 9, 60, 4, 5, 3, "random"), 107)
    chain_full = attach_super_terminals(chain, DemandVector({"s": -3, "d": 3}))
    draw_full = attach_super_terminals(parsed.network, parsed.demands)
    for full, pins, settled in ((chain_full, 0, {"m": (0, 1, 3)}), (draw_full, 1, {})):
        assert constructions(cten_breakpoints, full, full.nodes) == pins
        assert constructions(settled_breakpoints, full) == 0
        assert constructions(gamma_breakpoints, full, full.nodes) == 1
        assert settled_breakpoints(full) == settled
    assert gamma_breakpoints(chain_full, chain_full.nodes) == {
        "s": (0,), "m": (0, 1, 2, 3), "d": (0,), S_STAR: (0,), D_STAR: (0,)
    }
    gammas = gamma_breakpoints(draw_full, draw_full.nodes)
    assert gammas == gadget_breakpoints(parsed.network)
    assert {i for i, a in gammas.items() if a != (0,)} == {"n2", "n4"}


def test_local_sets_counterexample_keeps_gamma_star():
    """Direction K's local sets overshoot here (165); the verdict does not.

    n2 and n4 are searched neighbours, so neither is settled, and both
    keep their Gamma* sets.
    """
    parsed = generate_instance(InstanceSpec(7, 2, 2, 9, 60, 4, 5, 3, "random"), 107)
    net, v = parsed.network, parsed.demands
    got = feas(net, v)
    ten, _ = max_flow(build_ten(attach_super_terminals(net, v)))
    assert got.flow_value == ten == 164
    assert (len(got.breakpoints["n2"]), len(got.breakpoints["n4"])) == (39, 29)
