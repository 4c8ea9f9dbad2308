"""Deterministic integral max flow on expanded graphs.

Blocking-flow (Dinitz) augmentation: BFS level graph, then DFS with
per-vertex arc cursors.  Infinite capacities stay ``float("inf")``
throughout — never a large integer sentinel — so integer arithmetic can't
overflow; an all-infinite augmenting path is reported as unbounded.
Arc order follows construction order, so results are reproducible.
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


def _adjacency(graph: ExpandedGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (arc index, direction); direction +1 = forward."""
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    for k, arc in enumerate(graph.arcs):
        adj[arc.tail].append((k, +1))
        adj[arc.head].append((k, -1))
    return adj


def max_flow(graph: ExpandedGraph) -> tuple[int, SteadyFlow]:
    """Exact maximum integral flow from the designated source to sink."""
    n = len(graph.vertices)
    source, sink = graph.source, graph.sink
    if source == sink:
        raise ModelError("source and sink coincide")
    adj = _adjacency(graph)
    flows = [0] * len(graph.arcs)

    def residual(arc_idx: int, direction: int) -> int | float:
        if direction > 0:
            return graph.arcs[arc_idx].capacity - flows[arc_idx]
        return flows[arc_idx]

    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for arc_idx, direction in adj[u]:
                arc = graph.arcs[arc_idx]
                v = arc.head if direction > 0 else arc.tail
                if level[v] < 0 and residual(arc_idx, direction) > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        cursor = [0] * n

        def augment() -> int | float:
            """Advance/retreat along the level graph; returns one path's flow."""
            stack: list[tuple[int, int]] = []  # (arc index, direction) per hop
            u = source
            while True:
                if u == sink:
                    bottleneck = min(residual(a, d) for a, d in stack)
                    if bottleneck == INF:
                        raise UnboundedFlowError("augmenting path of infinite capacity")
                    for a, d in stack:
                        flows[a] += bottleneck * d
                    return bottleneck
                advanced = False
                while cursor[u] < len(adj[u]):
                    arc_idx, direction = adj[u][cursor[u]]
                    arc = graph.arcs[arc_idx]
                    v = arc.head if direction > 0 else arc.tail
                    if residual(arc_idx, direction) > 0 and level[v] == level[u] + 1:
                        stack.append((arc_idx, direction))
                        u = v
                        advanced = True
                        break
                    cursor[u] += 1
                if advanced:
                    continue
                level[u] = -1
                if not stack:
                    return 0
                arc_idx, direction = stack.pop()
                arc = graph.arcs[arc_idx]
                u = arc.tail if direction > 0 else arc.head
                cursor[u] += 1

        while True:
            pushed = augment()
            if pushed == 0:
                break
            total += pushed
    steady = SteadyFlow(tuple(flows), total)
    return total, steady


def residual_reachable(graph: ExpandedGraph, flow: SteadyFlow) -> frozenset[int]:
    """Vertices reachable from the source through positive residual capacity.

    Requires a maximum flow: finding the sink reachable falsifies that and
    raises.  Every arc leaving the returned set is saturated, so the set
    certifies a minimum cut.
    """
    adj = _adjacency(graph)
    seen = {graph.source}
    queue = deque([graph.source])
    while queue:
        u = queue.popleft()
        for arc_idx, direction in adj[u]:
            arc = graph.arcs[arc_idx]
            v = arc.head if direction > 0 else arc.tail
            if v in seen:
                continue
            slack = (
                arc.capacity - flow.arc_flows[arc_idx]
                if direction > 0
                else flow.arc_flows[arc_idx]
            )
            if slack > 0:
                seen.add(v)
                queue.append(v)
    if graph.sink in seen:
        raise InternalConsistencyError("sink reachable in residual graph: flow not maximum")
    return frozenset(seen)


def cut_capacity(graph: ExpandedGraph, side: frozenset[int]) -> int | float:
    """Total capacity of arcs leaving the given source-side vertex set."""
    return sum(
        arc.capacity for arc in graph.arcs if arc.tail in side and arc.head not in side
    )


def check_max_flow(graph: ExpandedGraph, value: int, flow: SteadyFlow):
    """Assert max-flow/min-cut consistency (used by test builds)."""
    side = residual_reachable(graph, flow)
    cut = cut_capacity(graph, side)
    if cut != value:
        raise InternalConsistencyError(f"flow value {value} != min-cut certificate {cut}")
