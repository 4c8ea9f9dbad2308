import pytest
from hypothesis import given, settings

from tempoflow import (
    DemandVector,
    EnumerationCapError,
    attach_super_terminals,
    canonical_breakpoints,
    canonical_reduction,
    cten_breakpoints,
    dttn_feasible,
    gamma_enumerate,
    gadget_breakpoints,
    gamma_star,
    hoppe_tardos_star,
    to_one_shot,
)

from conftest import build_chain, build_e1, make_network
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
    from tempoflow.reductions import CanonicalTemporalNetwork, S_STAR, D_STAR

    full = attach_super_terminals(net, v).materialize()
    ps_plus, ps_minus, pps = classify_roles(full)
    return CanonicalTemporalNetwork(full, S_STAR, D_STAR, ps_plus, ps_minus, pps)


def test_chain_gamma_interior_node():
    canon = chain_canonical()
    got = gamma_enumerate(canon, "q")
    # the boundary-offset sums 0 +- 2 and 11 +- 3 must all survive clamping
    assert {0, 2, 8, 11} <= set(got)
    assert got == (0, 2, 3, 8, 9, 11)


def test_chain_gamma_terminals_trivial():
    canon = chain_canonical()
    assert gamma_enumerate(canon, "p") == (0, 11)
    assert gamma_enumerate(canon, "r") == (0, 11)


def test_breakpoints_replace_top_with_horizon():
    canon = chain_canonical()
    bps = canonical_breakpoints(canon, canon.net.nodes)
    assert bps["q"] == (0, 2, 3, 8, 9, 10)  # 11 dropped, 10 forced in
    assert bps["p"] == (0, 10)


def test_gamma_star_defaults_to_gamma():
    canon = chain_canonical()
    assert gamma_star(canon, ("q",))["q"] == gamma_enumerate(canon, "q")


def test_gamma_star_pps_unions_in_neighbors():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    (pps,) = sorted(canon.pps_minus)
    preds = sorted(e[0] for e in canon.net.edges if e[1] == pps)
    union = set(gamma_enumerate(canon, preds[0])) | set(gamma_enumerate(canon, preds[1]))
    assert set(gamma_star(canon, (pps,))[pps]) == union


def test_all_sets_within_range():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    T = canon.horizon
    for g in gamma_star(canon, canon.net.nodes).values():
        assert all(0 <= t <= T + 1 for t in g)
        assert 0 in g and T + 1 in g
    bps = canonical_breakpoints(canon, canon.net.nodes)
    for i, pts in bps.items():
        assert pts[0] == 0 and pts[-1] == T
        assert T + 1 not in pts


def test_enumeration_cap_enforced(monkeypatch):
    import tempoflow.breakpoints as breakpoints_mod

    canon = chain_canonical()
    monkeypatch.setattr(breakpoints_mod, "PATH_CAP", 0)
    with pytest.raises(EnumerationCapError):
        gamma_enumerate(canon, "q")


def test_long_chain_sets_agree():
    """Pin paths thousands of steps long: both searches keep their own stack."""
    net = build_chain(1500)
    v = DemandVector({"s": -1, "d": 1})
    canon = canonical_reduction(*hoppe_tardos_star(to_one_shot(net)[0], v))
    got = cten_breakpoints(net, ("m0",))
    assert got == canonical_breakpoints(canon, ("m0",))
    assert got["m0"] == (0, 2, 4, 5)


def gadget_sets(net, v, nodes):
    """Gamma* of ``nodes`` on the gadget form, clipped as ``cten_breakpoints`` clips."""
    one_shot, _ = to_one_shot(net)
    canon = canonical_reduction(*hoppe_tardos_star(one_shot, v))
    T = canon.horizon
    return {
        i: tuple(sorted({t for t in g if 0 <= t <= T} | {0, T}))
        for i, g in gamma_star(canon, nodes).items()
    }


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
        assert bps == gadget_sets(net, v, nodes)
        if k < 100:
            canon = canonical_reduction(*hoppe_tardos_star(to_one_shot(net)[0], v))
            every = canon.net.nodes
            assert canonical_breakpoints(canon, every) == gadget_sets(net, v, every)


@settings(max_examples=80, deadline=None)
@given(temporal_networks())
def test_one_shot_sets_equal_gadget_sets(net):
    v = DemandVector({})
    bps, nodes = one_shot_sets(net, v)
    assert bps == gadget_sets(net, v, nodes)


@settings(max_examples=80, deadline=None)
@given(temporal_networks(inf=True))
def test_one_shot_sets_equal_gadget_sets_with_inf(net):
    """INF capacities: the reference swaps in a finite stand-in, the verdict path none."""
    v = DemandVector({})
    bps, _ = one_shot_sets(net, v)
    assert bps == gadget_breakpoints(net, v)


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


def test_relay_keys_ignore_relay_like_names():
    """Nodes named like to_one_shot's relays change nothing but the names.

    Edge a -> b has four live windows, so the split puts relays on its
    pieces 1 to 3, and ``a>b#1`` is primed twice past the nodes that
    already carry those names.  The verdict path keys its relays by tuple
    and must agree with the same network under other names, and with the
    gadget form.
    """
    rename = {"a>b#1": "x", "a>b#1'": "y"}

    def build(name):
        nodes = ("a", "b", name("a>b#1"), name("a>b#1'"), "d")
        edges = {
            ("a", "b"): ([(0, 2, 1), (3, 5, 2), (6, 9, 1)], [(0, 4, 1), (5, 9, 2)]),
            ("a", name("a>b#1")): ([(0, 9, 1)], 1),
            (name("a>b#1"), name("a>b#1'")): ([(0, 4, 2), (5, 9, 0)], 2),
            (name("a>b#1'"), "d"): ([(0, 9, 1)], 1),
            ("b", "d"): ([(0, 9, 1)], 3),
        }
        return make_network(nodes, edges, {"a"}, {"d"}, 9)

    net, renamed = build(lambda n: n), build(lambda n: rename.get(n, n))
    assert "a>b#1''" in to_one_shot(net)[0].nodes
    v = DemandVector({"a": -20, "d": 20})
    got, want = dttn_feasible(net, 9, v), dttn_feasible(renamed, 9, v)
    assert not got.feasible
    assert (got.feasible, got.violated, got.o_T) == (want.feasible, want.violated, want.o_T)
    assert {rename.get(i, i): a for i, a in got.breakpoints.items()} == want.breakpoints
    full = attach_super_terminals(net, v)
    assert cten_breakpoints(full, full.nodes) == got.breakpoints == gadget_breakpoints(net, v)
