"""Deterministic integral max flow on expanded graphs.

Blocking-flow (Dinitz) augmentation over one residual graph, built
straight from the graph's flat arc tuples: arc k is residual arc 2k
(forward, capacity minus flow) and 2k + 1 (backward, the flow), so
``e ^ 1`` is the partner of residual arc e.  The vertex count comes from
the graph's id ranges, and each vertex's residual arcs are listed from
``tails`` and ``heads`` directly; no vertex label is read.  ``max_flow``
starts from the zero flow, whose residual graph takes the capacities as
they are (no subtraction, so no new float per infinite arc) and 0 on
every backward arc; ``residual_reachable`` subtracts the flow it is
given.  Each phase builds a BFS level graph, stopping once the sink is
labeled, then advances and retreats along it with per-vertex arc
cursors, reading each residual arc once per cursor step.  The flow
carries the least minimum cut's source side: the vertices reachable in
the final residual graph.  Once the flow value equals the finite
capacity leaving the source, no residual arc leaves it (no augmenting
path enters the source), so the side is ``{source}`` and no further BFS
runs; otherwise the BFS that fails to reach the sink ends the algorithm
and has labeled exactly that side.  ``residual_reachable`` recomputes it
independently from the arc flows.  Infinite capacities stay
``float("inf")`` throughout — never a large integer sentinel — so integer
arithmetic can't overflow; an all-infinite augmenting path is reported as
unbounded.  Each vertex lists its residual arcs in arc order, so results
are reproducible.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import sub

from .model import INF, ModelError, Value
from .expansion import ExpandedGraph


class UnboundedFlowError(ModelError):
    """The graph admits an augmenting path of infinite capacity."""


class InternalConsistencyError(AssertionError):
    """An internal invariant failed; this falsifies the implementation."""


class SteadyFlow(Value):
    """Per-arc flow amounts, indexed like ``graph.arcs``.

    ``side`` is the least minimum cut's source side, the vertices
    reachable in the residual graph: ``{source}`` once the source
    saturates, else the vertices the last BFS of ``max_flow`` reached;
    None for a flow given otherwise.
    """

    __slots__ = ("arc_flows", "side")

    def __init__(self, arc_flows: tuple[int, ...], side: frozenset[int] | None = None):
        self.arc_flows = arc_flows
        self.side = side


def _residual(graph: ExpandedGraph, arc_flows=None) -> tuple[list[list[int]], list[int], list]:
    """Residual graph of a flow: per-vertex residual arcs, their heads and capacities.

    With no flow given, the flow is zero: forward arcs keep the graph's
    capacities as they are and backward arcs have none.
    """
    tails, heads = graph.tails, graph.heads
    n = 2 * len(tails)
    head = [0] * n
    head[::2] = heads
    head[1::2] = tails
    cap = [0] * n
    if arc_flows is None:
        cap[::2] = graph.caps
    else:
        cap[::2] = map(sub, graph.caps, arc_flows)
        cap[1::2] = arc_flows
    adj: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e, u, v in zip(range(0, n, 2), tails, heads):
        adj[u].append(e)
        adj[v].append(e + 1)
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
    adj, head, cap = _residual(graph)
    # The capacity leaving the source (INF if one of its arcs is): its forward arcs.
    out = sum(cap[e] for e in adj[source] if not e & 1)
    total = 0
    while total != out:
        level = _levels(adj, head, cap, source, sink)
        if level[sink] < 0:
            # The BFS that missed the sink ran to completion: its labels are the side.
            side = frozenset(compress(range(len(level)), map((-1).__lt__, level)))
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
                if total == out:
                    break
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
    else:
        # Every arc out of the source is saturated, and no path enters it, so
        # no residual arc leaves it: the least minimum cut's side is the source.
        side = frozenset((source,))
    return total, SteadyFlow(tuple(cap[1::2]), side)


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
