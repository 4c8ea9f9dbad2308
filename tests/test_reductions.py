import pytest

from tempoflow import (
    DemandVector,
    ModelError,
    StructuralError,
    attach_super_terminals,
    canonical_reduction,
    classify_roles,
    hoppe_tardos_star,
    to_one_shot,
)
from tempoflow.model import INF

from conftest import build_e1, make_network


def reduce_e1(v):
    net = build_e1()
    one_shot, _ = to_one_shot(net)
    return hoppe_tardos_star(one_shot, v)


def test_gadget_shape():
    reduced, v2 = reduce_e1(DemandVector({"s": -2, "d": 2}))
    assert reduced.horizon == 3
    # one 8-node gadget plus the two original nodes
    assert len(reduced.nodes) == 10
    assert len(reduced.edges) == 9
    assert reduced.is_static()


def test_gadget_demands():
    _, v2 = reduce_e1(DemandVector({"s": -2, "d": 2}))
    # window [1, 2], u = 1: first-stage pair moves u(beta - alpha + 1) = 2,
    # second-stage pair moves u(T + 1) = 4; originals keep their demands.
    assert v2.get("s") == -2 and v2.get("d") == 2
    assert v2.get("s+:s:d") == -2 and v2.get("s-:s:d") == 2
    assert v2.get("s2+:s:d") == -4 and v2.get("s2-:s:d") == 4
    assert v2.total() == 0


def test_gadget_roles_classified():
    reduced, v2 = reduce_e1(DemandVector({"s": -2, "d": 2}))
    canon = canonical_reduction(reduced, v2)
    for node in reduced.nodes:
        role = node.split(":")[0]
        if role in ("s+", "s2+"):
            assert node in canon.ps_plus
        if role in ("s-", "s2-"):
            assert node in canon.ps_minus
        if role == "t2-":
            assert node in canon.pps_minus
    assert canon.pps_minus  # the second-stage junction is a pseudo-pseudosink


def test_infinite_capacity_rejected():
    net = make_network(
        ("s", "d"), {("s", "d"): ([(0, 3, INF)], 1)}, {"s"}, {"d"}, 3
    )
    one_shot, _ = to_one_shot(net)
    with pytest.raises(ModelError):
        hoppe_tardos_star(one_shot, DemandVector({"s": -1, "d": 1}))


def test_gadget_and_super_edges_shared(corpus):
    """One EdgeFn object per gadget (u, tau) and per super-edge (time, capacity)."""

    def assert_shared(keyed):
        ids: dict[tuple, set[int]] = {}
        for key, fn in keyed:
            ids.setdefault(key, set()).add(id(fn))
        assert all(len(group) == 1 for group in ids.values())

    for parsed in corpus[:40]:
        net, v = parsed.network, parsed.demands
        T = net.horizon
        one_shot, _ = to_one_shot(net)
        reduced, _ = hoppe_tardos_star(one_shot, v)
        assert_shared(
            ((fn.capacity(0), fn.travel_time(0)), fn) for fn in reduced.edges.values()
        )
        full = attach_super_terminals(net, v).materialize()
        assert_shared(
            ((0, -v.get(j)) if i == "s*" else (T, v.get(i)), fn)
            for (i, j), fn in full.edges.items()
            if (i, j) not in net.edges
        )


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        # A node already carries a gadget node's name.
        (("s", "d", "t2-:s:d"), {("s", "d"): ([(0, 3, 1)], 1)}, "reserved"),
        # Two edges whose gadget names coincide.
        (
            ("a", "b:c", "a:b", "c"),
            {
                ("a", "b:c"): ([(0, 3, 1)], 1),
                ("b:c", "a:b"): ([(0, 3, 1)], 0),
                ("a:b", "c"): ([(0, 3, 1)], 1),
            },
            "reserved",
        ),
        # u * (T + 1) past the machine integer range.
        (("s", "d"), {("s", "d"): ([(0, 3, 2**62)], 1)}, "exceeds"),
    ],
)
def test_what_the_gadgets_cannot_represent_is_rejected(nodes, edges, message):
    """The verdict path builds no gadgets but rejects what they could not represent."""
    from tempoflow import dttn_feasible, max_flow_over_time

    net = make_network(nodes, edges, {nodes[0]}, {nodes[-1]}, 3)
    v = DemandVector({nodes[0]: -1, nodes[-1]: 1})
    one_shot, _ = to_one_shot(net)
    for call in (
        lambda: hoppe_tardos_star(one_shot, v),
        lambda: dttn_feasible(net, 3, v),
        lambda: max_flow_over_time(net, 3),
    ):
        with pytest.raises(ModelError, match=message):
            call()


def test_attach_super_terminals_windows():
    net = build_e1()
    v = DemandVector({"s": -2, "d": 2})
    full = attach_super_terminals(net, v).materialize()
    star = full.edges[("s*", "s")]
    assert star.capacity(0) == 2 and star.capacity(1) == 0
    drain = full.edges[("d", "d*")]
    assert drain.capacity(3) == 2 and drain.capacity(2) == 0


def test_degenerate_terminal_chain_rejected():
    # s* -> a -> d* makes a both pseudosource and pseudosink
    from tempoflow import EdgeFn, PiecewiseConstFn, TemporalNetwork

    def one_shot_edge(t, cap, T):
        pieces = []
        if t > 0:
            pieces.append((0, t - 1, 0))
        pieces.append((t, t, cap))
        if t < T:
            pieces.append((t + 1, T, 0))
        return EdgeFn(PiecewiseConstFn(tuple(pieces)), PiecewiseConstFn.constant(0, T))

    bad = TemporalNetwork(
        ("s*", "a", "d*"),
        {("s*", "a"): one_shot_edge(0, 1, 3), ("a", "d*"): one_shot_edge(3, 1, 3)},
        frozenset({"s*"}),
        frozenset({"d*"}),
        3,
    )
    with pytest.raises(StructuralError):
        classify_roles(bad)


def test_feasibility_preserved_by_reduction(corpus):
    """Gadget reduction preserves the TEN-oracle verdict (spot check)."""
    from tempoflow import build_ten, max_flow
    from tempoflow.reductions import attach_super_terminals as attach

    for parsed in corpus[:40]:
        net, v = parsed.network, parsed.demands
        required = sum(x for x in v.values.values() if x > 0)
        direct, _ = max_flow(build_ten(attach(net, v)))
        one_shot, _ = to_one_shot(net)
        reduced, v2 = hoppe_tardos_star(one_shot, v)
        required2 = sum(x for x in v2.values.values() if x > 0)
        value2, _ = max_flow(build_ten(attach(reduced, v2)))
        assert (direct >= required) == (value2 >= required2)


@pytest.mark.parametrize(
    "caps, message",
    [
        ({"s": 1}, "one super-edge capacity per terminal"),
        ({"s": 1, "d": 1, "x": 1}, "one super-edge capacity per terminal"),
        ({"s": -1, "d": 1}, "not a non-negative integer or INF"),
        ({"s": True, "d": 1}, "not a non-negative integer or INF"),
        ({"s": 1.5, "d": 1}, "not a non-negative integer or INF"),
        ({"s": 2**63, "d": 1}, "exceeds"),
    ],
)
def test_super_terminal_capacities_validated(caps, message):
    from tempoflow.reductions import with_super_terminals

    with pytest.raises(ModelError, match=message):
        with_super_terminals(build_e1(), caps)


def test_super_terminal_names_reserved():
    from tempoflow.reductions import with_super_terminals

    net = make_network(("s*", "d"), {("s*", "d"): ([(0, 3, 1)], 1)}, {"s*"}, {"d"}, 3)
    with pytest.raises(ModelError, match="reserved"):
        with_super_terminals(net, {"s*": 1, "d": 1})
