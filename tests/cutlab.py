"""Minimum-cut structure on full expansions of canonical networks.

A cut function assigns each node a cut time in [0, T + 1]; the induced
vertex cut puts (i, t) on the source side iff t >= phi(i).  Because
holdover arcs run forward in time with infinite capacity, every minimum
cut of the full expansion has this threshold shape, so cut functions are
a lossless language for minimum cuts here.

Canonicalization rewrites a minimum cut function, preserving its cost at
every single step, until each node's cut time lies in that node's
critical-time set: first the pseudoterminals move to the boundary
{0, T + 1}, then every component of the pinned graph that is not anchored
to a boundary value drifts upward until a new pin forms, and finally the
pseudo-pseudosinks settle onto their designated in-neighbor's value.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempoflow import (
    INF,
    CanonicalTemporalNetwork,
    ExpandedGraph,
    InternalConsistencyError,
    ModelError,
    SteadyFlow,
    gamma_star,
    residual_reachable,
)
from tempoflow.reductions import D_STAR, S_STAR

from conftest import vertex_at


@dataclass(frozen=True)
class CutFunction:
    """Per-node cut times in [0, T + 1]; source side is t >= value."""

    values: dict[str, int]
    horizon: int

    def __post_init__(self):
        for node, t in self.values.items():
            if not (0 <= t <= self.horizon + 1):
                raise ModelError(f"cut time {t} of {node} outside [0, {self.horizon + 1}]")

    def __getitem__(self, node: str) -> int:
        return self.values[node]

    def total(self) -> int:
        return sum(self.values.values())


def min_cut_times(graph: ExpandedGraph, flow: SteadyFlow, horizon: int) -> CutFunction:
    """The threshold cut function of a full expansion's minimum cut.

    Reads the residual source side of a maximum flow; per node the side is
    upward-closed in time (holdover arcs are infinite), so its least time
    is the cut time, with T + 1 when no copy is reachable.
    """
    side = residual_reachable(graph, flow)
    labels = graph.vertices
    first: dict[str, int] = {}
    for vid in side:
        node, (t, t2) = labels[vid]
        if t != t2:
            raise ModelError("min_cut_times requires a full expansion")
        if node not in first or t < first[node]:
            first[node] = t
    values = {}
    for node, _ in {lab[0]: None for lab in labels}.items():
        values[node] = first.get(node, horizon + 1)
    for vid in side:
        node, (t, _) = labels[vid]
        if t > values[node] and vertex_at(graph, node, values[node]) not in side:
            raise InternalConsistencyError(f"residual side of {node} is not upward-closed")
    return CutFunction(values, horizon)


def cut_cost(graph: ExpandedGraph, phi: CutFunction) -> int | float:
    """Capacity of the arcs leaving the vertex cut induced by ``phi``.

    An arc (i, t) -> (j, t') crosses iff t >= phi(i) and t' < phi(j).
    Holdover arcs can never cross (they would need t + 1 < phi(i) <= t).
    """
    total: int | float = 0
    labels = graph.vertices
    for tail, head, cap in zip(graph.tails, graph.heads, graph.caps):
        (i, (t, _)), (j, (t2, _)) = labels[tail], labels[head]
        if t >= phi[i] and t2 < phi[j]:
            if i == j:
                raise InternalConsistencyError(f"holdover arc of {i} crosses the cut")
            total = INF if cap == INF else total + cap
    return total


def shift_cut(phi: CutFunction, component: frozenset[str], delta: int) -> CutFunction:
    """The cut function with every node of the component moved by delta (+-1).

    Defined only while the component stays clear of the boundary: a node
    already at 0 or T + 1 cannot move.
    """
    if delta not in (-1, +1):
        raise ModelError("shift step must be +1 or -1")
    for i in sorted(component):
        if phi[i] in (0, phi.horizon + 1):
            raise ModelError(f"node {i} is at boundary value {phi[i]} and cannot shift")
    return _shifted(phi, component, delta)


def _shifted(phi: CutFunction, component, delta: int) -> CutFunction:
    values = dict(phi.values)
    for i in component:
        values[i] += delta
    return CutFunction(values, phi.horizon)


def forbidden_set(
    canon: CanonicalTemporalNetwork, phi: CutFunction, component: frozenset[str], i: str
) -> set[int]:
    """Cut times of ``i`` at which shifting the component changes some
    crossing count against a node outside it, plus the boundary values."""
    out = {0, phi.horizon + 1}
    for (j, k), fn in canon.net.edges.items():
        tau = fn.travel_time.pieces[0][2]
        if k == i and j not in component:
            out.add(phi[j] + tau)
        if j == i and k not in component:
            out.add(phi[k] - tau)
    return out


@dataclass(frozen=True)
class PinnedGraph:
    """Which nodes are currently pinned to each other or to the boundary.

    Two endpoints of a network edge are pinned when their cut-time gap
    equals the edge's travel time (in either orientation); a node is
    anchored when its cut time sits on the boundary {0, T + 1}.
    """

    adjacency: dict[str, frozenset[str]]
    anchored: frozenset[str]

    def components(self) -> list[frozenset[str]]:
        seen: set[str] = set()
        out = []
        for start in sorted(self.adjacency):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def unanchored_components(self) -> list[frozenset[str]]:
        return [c for c in self.components() if not (c & self.anchored)]


def pinned_graph(canon: CanonicalTemporalNetwork, phi: CutFunction) -> PinnedGraph:
    adjacency: dict[str, set[str]] = {n: set() for n in canon.net.nodes}
    for (i, j), fn in canon.net.edges.items():
        tau = fn.travel_time.pieces[0][2]
        if abs(phi[i] - phi[j]) == tau:
            adjacency[i].add(j)
            adjacency[j].add(i)
    anchored = frozenset(
        n for n in canon.net.nodes if phi[n] in (0, phi.horizon + 1)
    )
    return PinnedGraph({n: frozenset(a) for n, a in adjacency.items()}, anchored)


def pps_settle_neighbor(
    canon: CanonicalTemporalNetwork, i: str, gammas: dict[str, tuple[int, ...]]
) -> str:
    """The in-neighbor a pseudo-pseudosink settles toward (smaller set wins).

    ``gammas`` holds every node's Gamma*.  An in-neighbor of a
    pseudo-pseudosink is no pseudo-pseudosink (its out-edges would reach a
    pseudosink only), so its Gamma* is its Gamma.
    """
    a, b = sorted(j for (j, k) in canon.net.edges if k == i)
    return a if len(gammas[a]) <= len(gammas[b]) else b


def canonicalize_min_cut(
    canon: CanonicalTemporalNetwork,
    phi: CutFunction,
    ten: ExpandedGraph,
) -> CutFunction:
    """Rewrite a minimum cut function so every cut time is a critical time.

    The input must be a minimum cut of ``ten`` (the full expansion of the
    canonical network); each elementary move asserts that the cost is
    unchanged, so the output is a minimum cut with phi(i) in the node's
    critical-time set for every i.
    """
    T = phi.horizon
    cost = cut_cost(ten, phi)
    allowed = gamma_star(canon, canon.net.nodes)

    def step(next_phi: CutFunction, what: str) -> CutFunction:
        new_cost = cut_cost(ten, next_phi)
        if new_cost != cost:
            raise InternalConsistencyError(
                f"{what} changed the cut cost from {cost} to {new_cost}"
            )
        return next_phi

    # Pseudoterminals to the boundary: sources drift up, sinks drift down.
    for s in sorted(canon.ps_plus):
        while phi[s] not in (0, T + 1):
            phi = step(_shifted(phi, {s}, +1), f"pseudosource shift of {s}")
    for d in sorted(canon.ps_minus):
        while phi[d] not in (0, T + 1):
            phi = step(_shifted(phi, {d}, -1), f"pseudosink shift of {d}")

    # A node with no in-edges only gains crossings as its cut time drops,
    # so raising it never costs more; dually a node with no out-edges can
    # always drop.  Either way it reaches the boundary at equal cost.
    for i in sorted(canon.net.nodes):
        if i in (S_STAR, D_STAR) or phi[i] in (0, T + 1):
            continue
        if not any(k == i for _, k in canon.net.edges):
            while phi[i] != T + 1:
                phi = step(_shifted(phi, {i}, +1), f"unfed-node shift of {i}")
        elif not any(j == i for j, _ in canon.net.edges):
            while phi[i] != 0:
                phi = step(_shifted(phi, {i}, -1), f"undrained-node shift of {i}")

    # Unanchored pinned components drift up until a new pin or anchor forms.
    guard = (T + 1) * len(canon.net.nodes) + 1
    while guard > 0:
        guard -= 1
        free = pinned_graph(canon, phi).unanchored_components()
        if not free:
            break
        comp = min(free, key=lambda c: sorted(c))
        phi = step(_shifted(phi, comp, +1), f"component shift of {sorted(comp)}")
    else:
        raise InternalConsistencyError("component drift failed to terminate")

    # Pseudo-pseudosinks settle: onto 0 when their pseudosink sits at 0,
    # otherwise onto the designated in-neighbor's value.
    for i in sorted(canon.pps_minus):
        (out_edge,) = [e for e in canon.net.edges if e[0] == i]
        target = 0 if phi[out_edge[1]] == 0 else phi[pps_settle_neighbor(canon, i, allowed)]
        while phi[i] != target:
            delta = +1 if target > phi[i] else -1
            phi = step(_shifted(phi, {i}, delta), f"settling shift of {i}")

    # Residual settling: the drift stage anchors components through pinned
    # paths that may traverse edges against their orientation, which can
    # park a node at a value outside its (directed) critical-time set even
    # though an equal-cost critical value exists.  Repair one node at a
    # time: reassign it to the first critical value that keeps the cost,
    # repeating until stable (a repaired neighbor can unlock a node).

    def interior_pinned_component(start: str) -> frozenset[str]:
        adjacency = pinned_graph(canon, phi).adjacency
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in comp and phi[w] not in (0, T + 1):
                    comp.add(w)
                    stack.append(w)
        return frozenset(comp)

    for _ in range(len(canon.net.nodes) + 1):
        changed = False
        for i in sorted(canon.net.nodes):
            if phi[i] in allowed[i]:
                continue
            candidates = [
                CutFunction({**phi.values, i: theta}, T) for theta in allowed[i]
            ]
            # A node pinned to interior neighbors may only move in concert
            # with them, so also try translating its whole pinned group.
            group = interior_pinned_component(i)
            for theta in allowed[i]:
                delta = theta - phi[i]
                values = {**phi.values}
                for j in group:
                    values[j] = phi[j] + delta
                if all(0 <= values[j] <= T + 1 for j in group):
                    candidates.append(CutFunction(values, T))
            for candidate in candidates:
                if cut_cost(ten, candidate) == cost:
                    phi = candidate
                    changed = True
                    break
        if not changed:
            break

    for i in canon.net.nodes:
        if phi[i] not in allowed[i]:
            raise InternalConsistencyError(
                f"cut time {phi[i]} of {i} not in its critical-time set {allowed[i]}"
            )
    return phi
