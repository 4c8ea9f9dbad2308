import pytest
from hypothesis import given, settings

from tempoflow import (
    INF,
    MAX_INT,
    DemandVector,
    EdgeFn,
    EnumerationCapError,
    PiecewiseConstFn,
    TemporalNetwork,
    attach_super_terminals,
    canonical_breakpoints,
    canonical_reduction,
    cten_breakpoints,
    dttn_feasible,
    gadget_breakpoints,
    hoppe_tardos_star,
    to_one_shot,
)
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
    """Gamma* of ``nodes`` on the gadget form within [0, T], as ``cten_breakpoints`` clips."""
    one_shot, _ = to_one_shot(net)
    canon = canonical_reduction(*hoppe_tardos_star(one_shot, v))
    T = canon.horizon
    return {i: tuple(t for t in g if t <= T) for i, g in gamma_star(canon, nodes).items()}


def one_shot_sets(net, v):
    full = attach_super_terminals(net, v)
    return cten_breakpoints(full, full.nodes), full.nodes


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
    """Only Gamma*(i) within [0, T] starts an interval of a verdict's cTEN.

    s*, d*, every terminal and every node lacking a live in- or out-window
    have one vertex, and T starts an interval of node i exactly when the
    gadget form's Gamma*(i) holds T.
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
        for i, bounds in graph.bounds.items():
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
    assert cten_breakpoints(full, full.nodes) == got.breakpoints == gadget_breakpoints(net)
