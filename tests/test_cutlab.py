import pytest

from tempoflow import (
    DemandVector,
    ModelError,
    build_ten,
    canonical_reduction,
    hoppe_tardos_star,
    max_flow,
    to_one_shot,
)
from tempoflow.reductions import D_STAR, S_STAR

from conftest import build_e1, build_fig4
from cutlab import (
    CutFunction,
    canonicalize_min_cut,
    cut_cost,
    forbidden_set,
    gamma_star,
    min_cut_times,
    pinned_graph,
    shift_cut,
)


def e1_canonical(v):
    one_shot, _ = to_one_shot(build_e1())
    reduced, v2 = hoppe_tardos_star(one_shot, v)
    return canonical_reduction(reduced, v2)


def test_cut_cost_e1():
    graph = build_ten(build_e1())
    phi = CutFunction({"s": 0, "d": 4}, 3)
    assert cut_cost(graph, phi) == 2


def test_cut_function_range_checked():
    with pytest.raises(ModelError):
        CutFunction({"s": 5}, 3)


def test_shift_cut_boundary_precondition():
    phi = CutFunction({"a": 0, "b": 2}, 3)
    with pytest.raises(ModelError, match="a"):
        shift_cut(phi, frozenset({"a", "b"}), +1)
    shifted = shift_cut(phi, frozenset({"b"}), +1)
    assert shifted["b"] == 3 and shifted["a"] == 0


def test_forbidden_set_formula():
    canon = e1_canonical(DemandVector({"s": -2, "d": 2}))
    T = canon.horizon
    phi = CutFunction({n: 1 for n in canon.net.nodes}, T)
    for i in canon.net.nodes:
        if i in (S_STAR, D_STAR):
            continue
        got = forbidden_set(canon, phi, frozenset({i}), i)
        expected = {0, T + 1}
        for (j, k), fn in canon.net.edges.items():
            tau = fn.travel_time.pieces[0][2]
            if k == i:
                expected.add(phi[j] + tau)
            if j == i:
                expected.add(phi[k] - tau)
        assert got == expected


def test_forbidden_set_all_neighbors_inside():
    canon = e1_canonical(DemandVector({"s": -2, "d": 2}))
    T = canon.horizon
    phi = CutFunction({n: 1 for n in canon.net.nodes}, T)
    everything = frozenset(canon.net.nodes)
    for i in canon.net.nodes:
        assert forbidden_set(canon, phi, everything, i) == {0, T + 1}


def test_min_cut_times_threshold_shape():
    canon = e1_canonical(DemandVector({"s": -3, "d": 3}))
    ten = build_ten(canon.net)
    value, flow = max_flow(ten)
    phi = min_cut_times(ten, flow, canon.horizon)
    assert phi[S_STAR] == 0
    assert phi[D_STAR] == canon.horizon + 1
    assert cut_cost(ten, phi) == value


def test_fig4_min_cut_pins_relay():
    graph = build_ten(build_fig4())
    value, flow = max_flow(graph)
    assert value == 0
    phi = min_cut_times(graph, flow, 4)
    assert cut_cost(graph, phi) == 0
    assert phi["b"] in (2, 3)


def test_canonicalize_preserves_cost_and_membership():
    canon = e1_canonical(DemandVector({"s": -3, "d": 3}))
    ten = build_ten(canon.net)
    value, flow = max_flow(ten)
    phi = min_cut_times(ten, flow, canon.horizon)
    phi2 = canonicalize_min_cut(canon, phi, ten)
    assert cut_cost(ten, phi2) == value
    for i, g in gamma_star(canon, canon.net.nodes).items():
        assert phi2[i] in g


def test_canonical_input_is_fixed_point():
    canon = e1_canonical(DemandVector({"s": -3, "d": 3}))
    ten = build_ten(canon.net)
    _, flow = max_flow(ten)
    phi = canonicalize_min_cut(canon, min_cut_times(ten, flow, canon.horizon), ten)
    again = canonicalize_min_cut(canon, phi, ten)
    assert cut_cost(ten, again) == cut_cost(ten, phi)
    for i, g in gamma_star(canon, canon.net.nodes).items():
        assert again[i] in g


def test_pinned_graph_components():
    canon = e1_canonical(DemandVector({"s": -2, "d": 2}))
    T = canon.horizon
    ten = build_ten(canon.net)
    _, flow = max_flow(ten)
    phi = min_cut_times(ten, flow, T)
    pg = pinned_graph(canon, phi)
    comps = pg.components()
    assert {n for c in comps for n in c} == set(canon.net.nodes)
    for comp in comps:
        for other in comps:
            assert comp is other or not (comp & other)
