"""Deterministic integral max flow on expanded graphs.

Blocking-flow (Dinitz) augmentation over one residual graph: arc k of
``graph.arcs`` is residual arc 2k (forward, capacity minus flow) and 2k + 1
(backward, the flow), so ``e ^ 1`` is the partner of residual arc e.  Each
phase builds a BFS level graph, then advances and retreats along it with
per-vertex arc cursors; the min-cut reader runs the same BFS on the
residual graph of a given flow.  Infinite capacities stay ``float("inf")``
throughout — never a large integer sentinel — so integer arithmetic can't
overflow; an all-infinite augmenting path is reported as unbounded.  Each
vertex lists its residual arcs in arc order, so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import INF, ModelError
from .expansion import ExpandedGraph


class UnboundedFlowError(ModelError):
    """The graph admits an augmenting path of infinite capacity."""


class InternalConsistencyError(AssertionError):
    """An internal invariant failed; this falsifies the implementation."""


@dataclass(frozen=True)
class SteadyFlow:
    """Per-arc flow amounts, indexed like ``graph.arcs``."""

    arc_flows: tuple[int, ...]
    value: int


def _residual(graph: ExpandedGraph, arc_flows) -> tuple[list[list[int]], list[int], list]:
    """Residual graph of a flow: per-vertex residual arcs, their heads and capacities."""
    adj: list[list[int]] = [[] for _ in graph.vertices]
    head: list[int] = []
    cap: list = []
    for arc, f in zip(graph.arcs, arc_flows, strict=True):
        adj[arc.tail].append(len(head))
        adj[arc.head].append(len(head) + 1)
        head += (arc.head, arc.tail)
        cap += (arc.capacity - f, f)
    return adj, head, cap


def _levels(adj: list[list[int]], head: list[int], cap: list, source: int) -> list[int]:
    """BFS distance from the source over positive residual arcs; -1 if unreachable."""
    level = [-1] * len(adj)
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for e in adj[u]:
            v = head[e]
            if level[v] < 0 and cap[e] > 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def max_flow(graph: ExpandedGraph) -> tuple[int, SteadyFlow]:
    """Exact maximum integral flow from the designated source to sink."""
    source, sink = graph.source, graph.sink
    if source == sink:
        raise ModelError("source and sink coincide")
    adj, head, cap = _residual(graph, [0] * len(graph.arcs))
    total = 0
    while True:
        level = _levels(adj, head, cap, source)
        if level[sink] < 0:
            break
        cursor = [0] * len(adj)
        path: list[int] = []  # residual arcs from the source to u
        u = source
        while True:
            if u == sink:
                pushed = min(cap[e] for e in path)
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
            while k < len(arcs) and not (cap[arcs[k]] > 0 and level[head[arcs[k]]] == nxt):
                k += 1
            cursor[u] = k
            if k < len(arcs):
                path.append(arcs[k])
                u = head[arcs[k]]
                continue
            level[u] = -1  # dead end: retreat
            if not path:
                break
            u = head[path.pop() ^ 1]
            cursor[u] += 1
    return total, SteadyFlow(tuple(cap[1::2]), total)


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
        arc.capacity for arc in graph.arcs if arc.tail in side and arc.head not in side
    )


def check_max_flow(graph: ExpandedGraph, value: int, flow: SteadyFlow):
    """Assert that ``flow`` is a flow of ``value`` with an equal cut (used by test builds).

    Checks capacity bounds on every arc, conservation at every vertex but
    the source and the sink, the source's net outflow, and max-flow/min-cut.
    """
    excess = [0] * len(graph.vertices)  # outflow minus inflow
    for k, (arc, f) in enumerate(zip(graph.arcs, flow.arc_flows, strict=True)):
        if not 0 <= f <= arc.capacity:
            raise InternalConsistencyError(f"arc {k} carries {f} of capacity {arc.capacity}")
        excess[arc.tail] += f
        excess[arc.head] -= f
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
