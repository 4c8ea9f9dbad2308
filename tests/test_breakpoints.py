import pytest

from tempoflow import (
    DemandVector,
    EnumerationCapError,
    canonical_reduction,
    cten_breakpoints,
    gamma_enumerate,
    gamma_star,
    hoppe_tardos_star,
    to_one_shot,
)

from conftest import build_e1, make_network


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

    full = attach_super_terminals(net, v)
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
    bps = cten_breakpoints(canon, canon.net.nodes)
    assert bps["q"] == (0, 2, 3, 8, 9, 10)  # 11 dropped, 10 forced in
    assert bps["p"] == (0, 10)


def test_gamma_star_defaults_to_gamma():
    canon = chain_canonical()
    assert gamma_star(canon, "q") == gamma_enumerate(canon, "q")


def test_gamma_star_pps_unions_in_neighbors():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    (pps,) = sorted(canon.pps_minus)
    preds = sorted(e[0] for e in canon.net.edges if e[1] == pps)
    union = set(gamma_enumerate(canon, preds[0])) | set(gamma_enumerate(canon, preds[1]))
    assert set(gamma_star(canon, pps)) == union


def test_all_sets_within_range():
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    reduced, v2 = hoppe_tardos_star(one_shot, DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    T = canon.horizon
    for i in canon.net.nodes:
        g = gamma_star(canon, i)
        assert all(0 <= t <= T + 1 for t in g)
        assert 0 in g and T + 1 in g
    bps = cten_breakpoints(canon, canon.net.nodes)
    for i, pts in bps.items():
        assert pts[0] == 0 and pts[-1] == T
        assert T + 1 not in pts


def test_enumeration_cap_enforced(monkeypatch):
    import tempoflow.breakpoints as breakpoints_mod

    canon = chain_canonical()
    monkeypatch.setattr(breakpoints_mod, "PATH_CAP", 0)
    with pytest.raises(EnumerationCapError):
        gamma_enumerate(canon, "q")


def test_cten_breakpoints_match_gamma_star(corpus):
    """The batched pass equals the per-node definition, clipped to [0, T]."""
    for parsed in corpus[:100]:
        one_shot, _ = to_one_shot(parsed.network)
        canon = canonical_reduction(*hoppe_tardos_star(one_shot, parsed.demands))
        T = canon.horizon
        bps = cten_breakpoints(canon, canon.net.nodes)
        for i in canon.net.nodes:
            clipped = {t for t in gamma_star(canon, i) if 0 <= t <= T}
            assert bps[i] == tuple(sorted(clipped | {0, T}))
