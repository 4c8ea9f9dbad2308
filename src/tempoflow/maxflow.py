"""Deterministic integral max flow on expanded graphs.

Blocking-flow (Dinitz) augmentation over one residual graph, built
straight from the graph's flat arc tuples: arc k is residual arc 2k
(forward, capacity minus flow) and 2k + 1 (backward, the flow), so
``e ^ 1`` is the partner of residual arc e.  Each phase builds a BFS level
graph, stopping once the sink is labeled, then advances and retreats along
it with per-vertex arc cursors, reading each residual arc once per cursor
step.  The BFS that fails to reach the sink ends the algorithm and has
labeled exactly the vertices reachable in the final residual graph, so the
flow carries that source side of a minimum cut; ``residual_reachable``
recomputes it independently from the arc flows.  Infinite capacities stay
``float("inf")`` throughout — never a large integer sentinel — so integer
arithmetic can't overflow; an all-infinite augmenting path is reported as
unbounded.  Each vertex lists its residual arcs in arc order, so results
are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import sub

from .model import INF, ModelError
from .expansion import ExpandedGraph


class UnboundedFlowError(ModelError):
    """The graph admits an augmenting path of infinite capacity."""


class InternalConsistencyError(AssertionError):
    """An internal invariant failed; this falsifies the implementation."""


@dataclass(frozen=True)
class SteadyFlow:
    """Per-arc flow amounts, indexed like ``graph.arcs``.

    ``side`` is the source side of a minimum cut: the vertices that the
    last BFS of ``max_flow`` reached; None for a flow given otherwise.
    """

    arc_flows: tuple[int, ...]
    value: int
    side: frozenset[int] | None = None


def _residual(graph: ExpandedGraph, arc_flows) -> tuple[list[list[int]], list[int], list]:
    """Residual graph of a flow: per-vertex residual arcs, their heads and capacities."""
    tails, heads = graph.tails, graph.heads
    n = 2 * len(tails)
    head = [0] * n
    head[::2] = heads
    head[1::2] = tails
    cap = [0] * n
    cap[::2] = map(sub, graph.caps, arc_flows)
    cap[1::2] = arc_flows
    tail = [0] * n  # residual arc e leaves head[e ^ 1]
    tail[::2] = tails
    tail[1::2] = heads
    adj: list[list[int]] = [[] for _ in graph.vertices]
    for e, u in enumerate(tail):
        adj[u].append(e)
    return adj, head, cap


def _levels(
    adj: list[list[int]], head: list[int], cap: list, source: int, sink: int = -1
) -> list[int]:
    """BFS distance from the source over positive residual arcs; -1 if unreachable.

    The search stops once it labels ``sink``: every vertex nearer the
    source is labeled by then, and no vertex at the sink's distance or
    beyond lies on a shortest augmenting path.
    """
    level = [-1] * len(adj)
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        nxt = level[u] + 1
        for e in adj[u]:
            v = head[e]
            if level[v] < 0 and cap[e] > 0:
                level[v] = nxt
                if v == sink:
                    return level
                queue.append(v)
    return level


def max_flow(graph: ExpandedGraph) -> tuple[int, SteadyFlow]:
    """Exact maximum integral flow from the designated source to sink."""
    source, sink = graph.source, graph.sink
    if source == sink:
        raise ModelError("source and sink coincide")
    adj, head, cap = _residual(graph, [0] * len(graph.caps))
    total = 0
    while True:
        level = _levels(adj, head, cap, source, sink)
        if level[sink] < 0:
            break
        cursor = [0] * len(adj)
        path: list[int] = []  # residual arcs from the source to u
        u = source
        while True:
            if u == sink:
                pushed = min(map(cap.__getitem__, path))
                if pushed == INF:
                    raise UnboundedFlowError("augmenting path of infinite capacity")
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = source
                continue
            arcs, k, nxt = adj[u], cursor[u], level[u] + 1
            n = len(arcs)
            while k < n:
                e = arcs[k]
                if cap[e] > 0 and level[head[e]] == nxt:
                    break
                k += 1
            cursor[u] = k
            if k < n:
                path.append(e)
                u = head[e]
                continue
            level[u] = -1  # dead end: retreat
            if not path:
                break
            u = head[path.pop() ^ 1]
            cursor[u] += 1
    # The BFS that missed the sink ran to completion: its labels are the side.
    side = frozenset(compress(range(len(level)), map((-1).__lt__, level)))
    return total, SteadyFlow(tuple(cap[1::2]), total, side)


def residual_reachable(graph: ExpandedGraph, flow: SteadyFlow) -> frozenset[int]:
    """Vertices reachable from the source through positive residual capacity.

    Requires a maximum flow: finding the sink reachable falsifies that and
    raises.  Every arc leaving the returned set is saturated, so the set
    certifies a minimum cut.
    """
    level = _levels(*_residual(graph, flow.arc_flows), graph.source)
    if level[graph.sink] >= 0:
        raise InternalConsistencyError("sink reachable in residual graph: flow not maximum")
    return frozenset(u for u, lv in enumerate(level) if lv >= 0)


def cut_capacity(graph: ExpandedGraph, side: frozenset[int]) -> int | float:
    """Total capacity of arcs leaving the given source-side vertex set."""
    return sum(
        cap
        for tail, head, cap in zip(graph.tails, graph.heads, graph.caps)
        if tail in side and head not in side
    )


def check_max_flow(graph: ExpandedGraph, value: int, flow: SteadyFlow):
    """Assert that ``flow`` is a flow of ``value`` with an equal cut (used by test builds).

    Checks capacity bounds on every arc, conservation at every vertex but
    the source and the sink, the source's net outflow, max-flow/min-cut,
    and that the side the flow carries, if any, is its residual source side.
    """
    excess = [0] * len(graph.vertices)  # outflow minus inflow
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
