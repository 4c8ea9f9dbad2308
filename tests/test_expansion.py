import gc
import hashlib
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempoflow import (
    INF,
    InstanceSpec,
    ModelError,
    OracleBudgetError,
    UnboundedFlowError,
    attach_super_terminals,
    build_cten,
    build_ten,
    extract_flow,
    generate_instance,
    max_flow,
)
from tempoflow.expansion import ten_size
from tempoflow.reductions import D_STAR, S_STAR, SuperTerminals
from tempoflow.solvers import _at_horizon

from conftest import (
    build_e1, build_fig4, cten_capacity, make_network, oracle_ten, pinned_graphs, vertex_at,
)
from strategies import edge_fns, temporal_networks


def brute_capacity(fn, interval, target):
    a, b = interval
    a2, b2 = target
    total = 0
    for t in range(a, b + 1):
        u = fn.capacity(t)
        if u and a2 <= t + fn.travel_time(t) <= b2:
            total += u
    return total


def intervals(graph, node):
    """The intervals of ``node``'s vertices in ``graph``, in id order."""
    return [iv for i, iv in graph.vertices if i == node]


def test_interval_partition_convention():
    net = build_fig4()
    graph = build_cten(net, {i: (0, 1, 4) for i in net.nodes})
    assert intervals(graph, "b") == [(0, 0), (1, 3), (4, 4)]
    first = graph.ranges["b"].start
    assert graph.vertices[vertex_at(graph, "b", 2)] == ("b", (1, 3))
    assert [vertex_at(graph, "b", t) - first for t in (0, 1, 3, 4)] == [0, 1, 1, 2]
    flat = _at_horizon(build_e1(), 0)
    point = build_cten(flat, {i: (0,) for i in flat.nodes})
    assert intervals(point, "d") == [(0, 0)]
    assert vertex_at(point, "d", 0) - point.ranges["d"].start == 0
    for t in (-1, 5):
        with pytest.raises(ModelError):
            vertex_at(graph, "b", t)


def test_interval_partition_requires_bounds():
    """A set must hold 0 and lie within [0, T]; T itself need not be a start.

    Any order and repeats are accepted: the set is read as its sorted,
    deduplicated form, and the error names that form.
    """
    net = build_fig4()
    for points, shown in (((1, 4), (1, 4)), ((0, 5), (0, 5)), ((4, 1, 1), (1, 4)), ((5, 0, 0), (0, 5))):
        message = re.escape(f"must contain 0 and lie within [0, 4]: {shown}")
        with pytest.raises(ModelError, match=message):
            build_cten(net, {i: points for i in net.nodes})
    graph = build_cten(net, {i: (0, 1) for i in net.nodes})
    assert intervals(graph, "b") == [(0, 0), (1, 4)]
    sets = {i: (0, 2, 3) for i in net.nodes}
    assert build_cten(net, {i: (3, 0, 2, 3, 0) for i in net.nodes}) == build_cten(net, sets)
    assert build_cten(net, {i: [2, 0, 3, 2] for i in net.nodes}) == build_cten(net, sets)


def test_e1_ten_arcs_and_value():
    graph = build_ten(build_e1())
    labels = graph.vertices
    crossing = [
        (labels[tail], labels[head], cap)
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if labels[tail][0] != labels[head][0]
    ]
    assert crossing == [
        (("s", (1, 1)), ("d", (2, 2)), 1),
        (("s", (2, 2)), ("d", (3, 3)), 1),
    ]
    value, _ = max_flow(graph)
    assert value == 2


def test_ten_budget_gate():
    with pytest.raises(OracleBudgetError):
        build_ten(build_e1(), budget=3)


def test_fig4_ten_value_zero():
    value, _ = max_flow(build_ten(build_fig4()))
    assert value == 0


def test_fig4_coarse_cten_value_one():
    net = build_fig4()
    coarse = {i: (0, 1, 4) for i in net.nodes}
    value, _ = max_flow(build_cten(net, coarse))
    assert value == 1


def test_cten_with_full_breakpoints_matches_ten():
    net = build_e1()
    full = {i: tuple(range(4)) for i in net.nodes}
    ten_value, _ = max_flow(build_ten(net))
    cten_value, _ = max_flow(build_cten(net, full))
    assert ten_value == cten_value == 2


@given(
    edge_fns(),
    st.data(),
)
def test_cten_edge_capacity_matches_brute_force(fn, data) -> None:
    T = fn.capacity.horizon
    a = data.draw(st.integers(0, T))
    b = data.draw(st.integers(a, T))
    a2 = data.draw(st.integers(0, T))
    b2 = data.draw(st.integers(a2, T))
    assert cten_capacity(fn, (a, b), (a2, b2)) == brute_capacity(fn, (a, b), (a2, b2))


# name: (T, capacity pieces, travel-time pieces, tail points, head points,
# number of arcs from x to y)
SWEEP_CASES = {
    # The second piece departs at 3 or later and travels 5 > T - 3.
    "piece past the horizon": (
        6, [(0, 2, 2), (3, 6, 3)], [(0, 2, 1), (3, 6, 5)], (0, 2, 6), (0, 3, 6), 2,
    ),
    "zero piece between live ones": (
        8, [(0, 1, 2), (2, 4, 0), (5, 8, 1)], [(0, 8, 1)], (0, 2, 5, 8), (0, 3, 6, 8), 3,
    ),
    "inf piece over several intervals": (
        8, [(0, 5, INF), (6, 8, 1)], [(0, 8, 0)], (0, 2, 4, 7, 8), (0, 3, 8), 6,
    ),
    "horizon zero": (0, [(0, 0, 3)], [(0, 0, 0)], (0,), (0,), 1),
    "horizon zero, travel past it": (0, [(0, 0, 3)], [(0, 0, 1)], (0,), (0,), 0),
    # Departures 0..7 arrive over 2..9, across the head's first three intervals.
    "arrivals over three intervals": (10, [(0, 10, 1)], [(0, 10, 2)], (0, 8, 10), (0, 4, 7, 10), 4),
    # Departures 0..1 arrive in the head's second interval, the later 2 in its first.
    "later window arrives earlier": (6, [(0, 3, 1), (4, 6, 0)], [(0, 1, 3), (2, 6, 0)], (0,), (0, 3), 2),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_edge_cases(case):
    """One edge x -> y: its arcs are the oracle TEN's blocks and the brute-force sums."""
    T, caps, tts, tail_points, head_points, n_arcs = SWEEP_CASES[case]
    net = make_network(["x", "y"], {("x", "y"): (caps, tts)}, ["x"], ["y"], T)
    fn = net.edges["x", "y"]
    graph = build_cten(net, {"x": tail_points, "y": head_points})
    brute = {}
    for iv in intervals(graph, "x"):
        for iv2 in intervals(graph, "y"):
            cap = brute_capacity(fn, iv, iv2)
            if cap:
                brute[vertex_at(graph, "x", iv[0]), vertex_at(graph, "y", iv2[0])] = cap
    blocks = {}
    for (i, t), (j, t2), attrs in oracle_ten(net).edges(data=True):
        if i != j:
            key = vertex_at(graph, i, t), vertex_at(graph, j, t2)
            blocks[key] = blocks.get(key, 0) + attrs["capacity"]
    labels = graph.vertices
    crossing = [
        ((tail, head), cap)
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if labels[tail][0] != labels[head][0]
    ]
    assert crossing == sorted(blocks.items()) == sorted(brute.items())
    assert len(crossing) == n_arcs


def check_condensed_terminals(full: SuperTerminals, oracle) -> None:
    """``build_ten(full)`` is exact with s* and d* over {0}, one vertex each.

    It is the cTEN with every step at the network's own nodes and {0}
    at s* and d*, ``ten_size`` counts it, and its max-flow value is that
    of ``oracle``, the networkx TEN of ``full.materialize()`` (INF when
    unbounded, 0 when s* or d* has no vertex there).
    """
    T, n = full.horizon, len(full.net.nodes)
    ten = build_ten(full)
    sets = {**{i: range(T + 1) for i in full.net.nodes}, S_STAR: (0,), D_STAR: (0,)}
    assert ten == build_cten(full, sets)
    assert ten_size(full) == (len(ten.vertices), len(ten.arcs))
    assert len(ten.vertices) == n * (T + 1) + 2
    try:
        value, _ = max_flow(ten)
    except UnboundedFlowError:
        value = INF
    source, sink = (S_STAR, 0), (D_STAR, T)
    expected = 0
    if source in oracle and sink in oracle:
        try:
            expected = nx.maximum_flow_value(oracle, source, sink)
        except nx.NetworkXUnbounded:
            expected = INF
    assert value == expected


@given(temporal_networks(inf=True), st.data())
def test_cten_sums_ten_into_interval_blocks(net, data) -> None:
    """The cTEN is the TEN with each (interval, interval) block summed, in order.

    Each terminal's super edge has capacity 0, k or INF, and the horizon
    may be cut to 0.  The TEN is the networkx ``oracle_ten`` of the
    materialized super network; the labelled arcs of that network's
    ``build_ten`` (per step at every node) must equal its edges and
    capacities, and ``check_condensed_terminals`` holds.  Blocks are
    grouped like the arcs of both builders (holdovers per node, then one
    group per edge, super edges last) and sorted within a group; blocks
    inside one interval are dropped.  The closed-form super arcs are also
    the arcs the materialized super edges sweep into, and ``ten_size``
    counts the built TENs' vertices and arcs.
    """
    if data.draw(st.booleans(), label="horizon 0"):
        net = _at_horizon(net, 0)
    cap = st.sampled_from((0, INF)) | st.integers(1, 9)
    full = SuperTerminals(net, {t: data.draw(cap, label=t) for t in sorted(net.terminals)})
    flat = full.materialize()
    T = full.horizon
    bps = {i: (0, *data.draw(st.sets(st.integers(0, T)))) for i in full.nodes}
    ten, cten, oracle = build_ten(flat), build_cten(full, bps), oracle_ten(flat)
    assert cten == build_cten(flat, bps)
    oracle_arcs = [(p, q, attrs.get("capacity", INF)) for p, q, attrs in oracle.edges(data=True)]
    ten_arcs = []
    labels = ten.vertices
    for tail, head, cap in zip(ten.tails, ten.heads, ten.caps):
        (i, (t, _)), (j, (t2, _)) = labels[tail], labels[head]
        ten_arcs.append(((i, t), (j, t2), cap))
    assert sorted(ten_arcs) == sorted(oracle_arcs)
    assert ten_size(flat) == (len(ten.vertices), len(ten.arcs))
    check_condensed_terminals(full, oracle)
    cten_labels = []
    for i in full.nodes:
        starts = sorted(set(bps[i]))
        cten_labels += [(i, (lo, nxt - 1)) for lo, nxt in zip(starts, starts[1:] + [T + 1])]
    assert cten.vertices == tuple(cten_labels)
    blocks: dict = {**{(i, i): {} for i in flat.nodes}, **{e: {} for e in flat.edges}}
    for (i, t), (j, t2), cap in oracle_arcs:
        a, b = vertex_at(cten, i, t), vertex_at(cten, j, t2)
        if a != b:
            group = blocks[i, j]
            group[a, b] = group.get((a, b), 0) + cap
    expected = [(a, b, cap) for group in blocks.values() for (a, b), cap in sorted(group.items())]
    assert list(zip(cten.tails, cten.heads, cten.caps)) == expected


@pytest.mark.parametrize("horizon", [0, 1])
def test_condensed_terminals_at_small_horizons(horizon):
    """s* and d* have one vertex each at every horizon, T = 0 included."""
    net = make_network(["s", "d"], {("s", "d"): ([(0, 1, 2)], 1)}, ["s"], ["d"], 1)
    full = SuperTerminals(_at_horizon(net, horizon), {"s": 3, "d": INF})
    check_condensed_terminals(full, oracle_ten(full.materialize()))
    ten = build_ten(full)
    assert [len(ten.ranges[i]) for i in (S_STAR, D_STAR)] == [1, 1]
    assert max_flow(ten)[0] == 2 * horizon


def test_materialized_super_terminals_stay_per_step():
    """A materialized network's s* and d* are ordinary nodes: T + 1 vertices each."""
    full = SuperTerminals(build_e1(), {"s": 2, "d": INF})
    per_step, condensed = build_ten(full.materialize()), build_ten(full)
    assert [len(per_step.ranges[i]) for i in (S_STAR, D_STAR)] == [4, 4]
    assert [len(condensed.ranges[i]) for i in (S_STAR, D_STAR)] == [1, 1]
    assert max_flow(per_step)[0] == max_flow(condensed)[0] == 2


# sha256 of the labels read off ``pinned_graphs``, recorded once breakpoint
# sets became Gamma*(i) within [0, T] (s* and d* one vertex each), after
# ``test_solvers.ANSWERS_DIGEST`` held.
LABELS_DIGEST = "85a6d91f4e9d9b931190900049641226653aff84f9f5296b48a08addd56e0bdc"


def test_graph_labels_pinned(corpus, long_corpus):
    """``vertices``, ``vertex_at`` at every step, max-flow ``departures`` and DOT text."""
    digest = hashlib.sha256()
    for graph, horizon in pinned_graphs(corpus, long_corpus):
        at = [[vertex_at(graph, i, t) for t in range(horizon + 1)] for i in graph.ranges]
        departures = graph.departures(max_flow(graph)[1].arc_flows)
        digest.update(repr((graph.vertices, at, departures, graph.to_dot("pin"))).encode())
    assert digest.hexdigest() == LABELS_DIGEST


# sha256 of the flows of ``pinned_graphs`` and of the ``extract_flow``
# witnesses of ``corpus[:40]``, read apart from how many vertices s* and d*
# have; recorded once breakpoint sets became Gamma*(i) within [0, T], which
# also merges each terminal's last step into its first interval.
TERMINAL_FREE_DIGEST = "5c60637b7c0d9f78ac54ecad17d404159b955801fa4b710c634417a6424fad18"


def test_flows_do_not_depend_on_super_terminal_vertices(corpus, long_corpus):
    """Max flows and witnesses read the same however s* and d* are expanded.

    Each arc's flow is keyed by its labels, with s* read at 0 and d* at T,
    and s*/d* holdovers are skipped; the side keeps the network's own
    vertices and s*'s first.  Departures and witnesses are compared whole.
    """
    terminals = (S_STAR, D_STAR)
    digest = hashlib.sha256()
    for graph, horizon in pinned_graphs(corpus, long_corpus):
        value, flow = max_flow(graph)
        labels = graph.vertices

        def key(vid):
            node, interval = labels[vid]
            return (node, {S_STAR: 0, D_STAR: horizon}.get(node, interval))

        arcs = [
            (key(tail), key(head), amount)
            for tail, head, amount in zip(graph.tails, graph.heads, flow.arc_flows)
            if not labels[tail][0] == labels[head][0] in terminals
        ]
        first = graph.ranges[S_STAR].start if S_STAR in graph.ranges else None
        side = sorted(
            vid for vid in flow.side if vid == first or labels[vid][0] not in terminals
        )
        digest.update(repr((value, arcs, graph.departures(flow.arc_flows), side)).encode())
    for p in corpus[:40]:
        try:
            witness = sorted(extract_flow(p.network, p.network.horizon, p.demands).flows.items())
        except ModelError as err:
            witness = str(err)
        digest.update(repr(witness).encode())
    assert digest.hexdigest() == TERMINAL_FREE_DIGEST


# Bytes the 27,008-vertex full expansion below may retain: ints only, about
# 3.56 MiB (4.37 MiB while s* and d* had one vertex per step, 8.21 MiB while
# every vertex also stored its (node, (lo, hi)) label).
TEN_RETAINED_BOUND = 3.8 * 2**20
# Peak bytes while max flow runs on it, the graph included: about 14.89 MiB
# (17.92 MiB with per-step s* and d*).
TEN_MAX_FLOW_PEAK_BOUND = 15.5 * 2**20


def test_full_expansion_retains_ints_only():
    """A full expansion retains its arcs and per-node bounds, no vertex labels.

    The network is a benchmark draw (coarse-medium feas draw 0 at seed 7,
    six nodes on the complete forward DAG) extended to T = 4500; s* and d*
    have one vertex each.  Max flow on it stays under its peak bound.
    """
    spec = InstanceSpec(
        n_nodes=6, n_sources=2, n_sinks=2, n_edges=99, horizon=30, max_capacity=4,
        max_travel_time=3, max_pieces=1, demand_mode="feasible",
    )
    parsed = generate_instance(spec, 3414324715)
    full = attach_super_terminals(_at_horizon(parsed.network, 4500), parsed.demands)
    gc.collect()
    tracemalloc.start()
    try:
        graph = build_ten(full)
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        value, _ = max_flow(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (graph.vertex_count, len(graph.arcs)) == (27_008, 71_995)
    assert value == 95
    assert retained < TEN_RETAINED_BOUND
    assert peak < TEN_MAX_FLOW_PEAK_BOUND
