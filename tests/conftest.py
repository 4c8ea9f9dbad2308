"""Shared fixtures: worked instances, an independent oracle, and a corpus.

The oracle here builds a full time expansion directly from the network
semantics using networkx, deliberately sharing no code with the package's
own expansion module, so agreement between the two is meaningful.  The
readers and checks of expanded graphs that only tests use live here too:
``vertex_at``, ``cten_capacity``, ``cut_capacity`` and ``check_max_flow``.
"""

from __future__ import annotations

from bisect import bisect_right

import networkx as nx
import pytest

from tempoflow import (
    DemandVector,
    EdgeFn,
    ExpandedGraph,
    InstanceSpec,
    InternalConsistencyError,
    ModelError,
    PiecewiseConstFn,
    SteadyFlow,
    TemporalNetwork,
    attach_super_terminals,
    build_cten,
    build_ten,
    gamma_breakpoints,
    generate_instance,
    residual_reachable,
)
from tempoflow.solvers import _at_horizon

SUPER_SOURCE = ("__oracle_source__", -1)
SUPER_SINK = ("__oracle_sink__", -1)


def make_network(nodes, edges, sources, sinks, horizon) -> TemporalNetwork:
    """Build a network from {(i, j): (cap_pieces, tt_pieces or const)}."""
    built = {}
    for (i, j), (cap, tt) in edges.items():
        cap_fn = PiecewiseConstFn(tuple(cap))
        if isinstance(tt, int):
            tt_fn = PiecewiseConstFn.constant(tt, horizon)
        else:
            tt_fn = PiecewiseConstFn(tuple(tt))
        built[(i, j)] = EdgeFn(cap_fn, tt_fn)
    return TemporalNetwork(
        tuple(nodes), built, frozenset(sources), frozenset(sinks), horizon
    )


def build_e1() -> TemporalNetwork:
    """Single edge s -> d, capacity 0/1/0 on [0,0]/[1,2]/[3,3], travel time 1."""
    return make_network(
        ("s", "d"),
        {("s", "d"): ([(0, 0, 0), (1, 2, 1), (3, 3, 0)], 1)},
        {"s"},
        {"d"},
        3,
    )


def build_chain(n: int) -> TemporalNetwork:
    """Path s -> m0 -> ... -> d of n nodes, capacity 1, horizon 5.

    The first edge has travel time 2 and the others 0, so m0's critical
    times are more than {0, T}; every pin path from m0 runs the whole chain.
    """
    nodes = ("s",) + tuple(f"m{k}" for k in range(n - 2)) + ("d",)
    edges = {(a, b): ([(0, 5, 1)], 0) for a, b in zip(nodes, nodes[1:])}
    edges[("s", "m0")] = ([(0, 5, 1)], 2)
    return make_network(nodes, edges, {"s"}, {"d"}, 5)


def build_fig4() -> TemporalNetwork:
    """Three-node network where condensing with bad breakpoints loses the cut.

    All travel times 1, horizon 4; s -> b has capacity 1 only at t = 2 and
    b -> d only at t = 1, so nothing can get through (the relay b is
    reachable only after its outgoing edge has closed), yet the coarse
    partition {0}, [1,3], {4} merges the relevant times and shows a path.
    """
    return make_network(
        ("s", "b", "d"),
        {
            ("s", "b"): ([(0, 1, 0), (2, 2, 1), (3, 4, 0)], 1),
            ("b", "d"): ([(0, 0, 0), (1, 1, 1), (2, 4, 0)], 1),
        },
        {"s"},
        {"d"},
        4,
    )


def oracle_ten(net: TemporalNetwork) -> nx.DiGraph:
    """The full expansion over vertices (node, t), built independently.

    Holdover arcs carry no capacity attribute, which networkx treats as
    unbounded; departures with zero capacity or arriving after T are left
    out.
    """
    T = net.horizon
    g = nx.DiGraph()
    for i in net.nodes:
        for t in range(T):
            g.add_edge((i, t), (i, t + 1))  # no capacity attr = infinite
    for (i, j), fn in net.edges.items():
        for t in range(T + 1):
            u = fn.capacity(t)
            tau = fn.travel_time(t)
            if u == 0 or t + tau > T:
                continue
            arrive = ((j, t + tau))
            if g.has_edge((i, t), arrive):
                g[(i, t)][arrive]["capacity"] += u
            else:
                g.add_edge((i, t), arrive, capacity=u)
    return g


def oracle_max_flow_over_time(net: TemporalNetwork, v: DemandVector | None = None):
    """Max flow over time via ``oracle_ten``.

    With demands given, super terminals cap each source at -v(s) (time 0)
    and each sink at v(d) (time T); without demands, terminals are open.
    Infinite capacities are expressed by omitting the capacity attribute,
    which networkx treats as unbounded.
    """
    T = net.horizon
    g = oracle_ten(net)
    for s in net.sources:
        if v is None:
            g.add_edge(SUPER_SOURCE, (s, 0))
        else:
            g.add_edge(SUPER_SOURCE, (s, 0), capacity=-v.get(s))
    for d in net.sinks:
        if v is None:
            g.add_edge((d, T), SUPER_SINK)
        else:
            g.add_edge((d, T), SUPER_SINK, capacity=v.get(d))
    value, _ = nx.maximum_flow(g, SUPER_SOURCE, SUPER_SINK)
    return value


def oracle_feasible(net: TemporalNetwork, v: DemandVector) -> bool:
    required = sum(d for d in v.values.values() if d > 0)
    return oracle_max_flow_over_time(net, v) >= required


def corpus_spec(rng, horizons: tuple[int, int] = (1, 12)) -> InstanceSpec:
    """One random draw of the small-instance parameter envelope.

    ``horizons`` bounds the horizon; the other parameters do not depend on it.
    """
    sources = rng.randint(1, 2)
    sinks = rng.randint(1, 2)
    return InstanceSpec(
        n_nodes=rng.randint(max(2, sources + sinks), 6),
        n_sources=sources,
        n_sinks=sinks,
        n_edges=rng.randint(1, 8),
        horizon=rng.randint(*horizons),
        max_capacity=4,
        max_travel_time=3,
        max_pieces=3,
        demand_mode=rng.choice(("feasible", "random")),
    )


@pytest.fixture(scope="session")
def corpus():
    """500 seeded random balanced instances inside the small envelope."""
    import random

    rng = random.Random(20260823)
    return [generate_instance(corpus_spec(rng), seed) for seed in range(500)]


def pinned_graphs(corpus, long_corpus) -> list:
    """``(graph, horizon)`` pairs whose max-flow results and labels tests pin.

    The condensed expansions of ``corpus[::25]`` and of the long corpus over
    the Gamma* sets (``gamma_breakpoints``), the full expansions of E1 and
    (with super terminals) of ``corpus[:5]``, and the full expansion of E1
    cut to T = 0.
    """
    fulls = [attach_super_terminals(p.network, p.demands) for p in corpus[::25] + long_corpus]
    graphs = [
        (build_cten(full, gamma_breakpoints(full, full.nodes)), full.horizon) for full in fulls
    ]
    graphs.append((build_ten(build_e1()), 3))
    graphs += [
        (build_ten(attach_super_terminals(p.network, p.demands)), p.network.horizon)
        for p in corpus[:5]
    ]
    graphs.append((build_ten(_at_horizon(build_e1(), 0)), 0))
    return graphs


@pytest.fixture(scope="session")
def long_corpus():
    """200 instances of the same envelope with T in 20..60, where the sets coarsen."""
    import random

    rng = random.Random(20261018)
    return [generate_instance(corpus_spec(rng, (20, 60)), seed) for seed in range(200)]


@pytest.fixture
def e1():
    return build_e1()


@pytest.fixture
def fig4():
    return build_fig4()


def vertex_at(graph: ExpandedGraph, node: str, t: int) -> int:
    """The vertex of ``node`` whose interval contains step t."""
    bounds = graph.bounds[node]
    horizon = bounds[-1] - 1
    if not (0 <= t <= horizon):
        raise ModelError(f"t={t} outside [0, {horizon}]")
    return graph.ranges[node].start + bisect_right(bounds, t) - 1


def cten_capacity(fn: EdgeFn, interval, target) -> int | float:
    """Capacity of the departures in ``interval`` that arrive in ``target``, from ``build_cten``.

    The edge is x -> y of a two-node network whose sets start intervals at
    both ends of ``interval`` (x) and of ``target`` (y), so each is one
    vertex and the capacity is that of the arc between them, if any.
    """
    T = fn.capacity.horizon
    (a, b), (a2, b2) = interval, target
    net = TemporalNetwork(("x", "y"), {("x", "y"): fn}, frozenset({"x"}), frozenset({"y"}), T)
    graph = build_cten(net, {"x": {0, a, b + 1} - {T + 1}, "y": {0, a2, b2 + 1} - {T + 1}})
    tail, head = vertex_at(graph, "x", a), vertex_at(graph, "y", a2)
    return sum(
        cap for t, h, cap in zip(graph.tails, graph.heads, graph.caps) if t == tail and h == head
    )


def cut_capacity(graph: ExpandedGraph, side: frozenset[int]) -> int | float:
    """Total capacity of arcs leaving the given source-side vertex set."""
    return sum(
        cap
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if tail in side and head not in side
    )


def check_max_flow(graph: ExpandedGraph, value: int, flow: SteadyFlow):
    """Assert that ``flow`` is a flow of ``value`` with an equal cut.

    Checks capacity bounds on every arc, conservation at every vertex but
    the source and the sink, the source's net outflow, max-flow/min-cut,
    and that the side the flow carries, if any, is its residual source side.
    """
    excess = [0] * graph.vertex_count  # outflow minus inflow
    arcs = zip(graph.tails, graph.heads, graph.caps, flow.arc_flows, strict=True)
    for k, (tail, head, cap, f) in enumerate(arcs):
        if not 0 <= f <= cap:
            raise InternalConsistencyError(f"arc {k} carries {f} of capacity {cap}")
        excess[tail] += f
        excess[head] -= f
    for u, x in enumerate(excess):
        if x != 0 and u not in (graph.source, graph.sink):
            raise InternalConsistencyError(f"flow not conserved at vertex {u}: excess {x}")
    if excess[graph.source] != value:
        raise InternalConsistencyError(
            f"source sends {excess[graph.source]}, not the flow value {value}"
        )
    side = residual_reachable(graph, flow)
    cut = cut_capacity(graph, side)
    if cut != value:
        raise InternalConsistencyError(f"flow value {value} != min-cut certificate {cut}")
    if flow.side is not None and flow.side != side:
        raise InternalConsistencyError("the flow's source side is not its residual source side")
