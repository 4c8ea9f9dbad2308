"""Time-expanded networks, full and condensed, as steady-state graphs.

The full expansion (one vertex per node and time step) is the brute-force
oracle and is gated by an explicit size budget.  The condensed expansion
groups each node's time steps into the intervals of a per-node breakpoint
set; arc capacities are the exact sums of the per-step capacities, computed
in closed form per constant piece so no loop over the horizon ever runs.
Each edge is built in one sweep of its merged pieces against its tail's
intervals, adding every piece's arrival count straight into the arc of its
(departure, target) interval pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .model import INF, ModelError, TemporalNetwork, merged_pieces

DEFAULT_TEN_BUDGET = 2_000_000


class OracleBudgetError(ModelError):
    """The full expansion would exceed the configured size budget."""


Interval = tuple[int, int]


@dataclass(frozen=True)
class IntervalPartition:
    """Closed integer intervals covering [0, T] induced by a breakpoint set.

    Breakpoints a_1 < ... < a_p (with a_1 = 0, a_p = T) induce the
    intervals [a_j, a_{j+1} - 1] plus the final singleton [T, T], so the
    points are exactly the intervals' first steps.
    """

    points: tuple[int, ...]
    intervals: tuple[Interval, ...]

    def index_of(self, t: int) -> int:
        if not (0 <= t <= self.points[-1]):
            raise ModelError(f"t={t} outside [0, {self.points[-1]}]")
        return bisect_right(self.points, t) - 1

    def interval_of(self, t: int) -> Interval:
        return self.intervals[self.index_of(t)]


def intervals_of(points, horizon: int) -> IntervalPartition:
    """Partition [0, T] for a breakpoint set containing 0 and T."""
    pts = tuple(sorted(set(points)))
    if not pts or pts[0] != 0 or pts[-1] != horizon:
        raise ModelError(f"breakpoint set must contain 0 and {horizon}: {pts}")
    if horizon == 0:
        return IntervalPartition(pts, ((0, 0),))
    ivs = [(pts[k], pts[k + 1] - 1) for k in range(len(pts) - 1) if pts[k] <= pts[k + 1] - 1]
    ivs.append((horizon, horizon))
    return IntervalPartition(pts, tuple(ivs))


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: int | float


@dataclass(frozen=True)
class ExpandedGraph:
    """Steady-state flow graph over (node, interval) vertices."""

    flavor: str  # "TEN" or "cTEN"
    vertices: tuple[tuple[str, Interval], ...]
    arcs: tuple[Arc, ...]
    source: int
    sink: int
    index: dict[tuple[str, Interval], int] = field(repr=False)

    def vertex(self, node: str, interval: Interval) -> int:
        return self.index[(node, interval)]

    def label(self, vid: int) -> tuple[str, Interval]:
        return self.vertices[vid]

    def departures(self, arc_flows) -> dict[tuple[tuple[str, str], int], int]:
        """Positive flow of a full expansion per ``((i, j), departure)``; holdovers skipped."""
        out: dict[tuple[tuple[str, str], int], int] = {}
        for arc, amount in zip(self.arcs, arc_flows, strict=True):
            if amount <= 0:
                continue
            (i, (t, _)), (j, _) = self.vertices[arc.tail], self.vertices[arc.head]
            if i != j:
                out[(i, j), t] = out.get(((i, j), t), 0) + amount
        return out

    def to_dot(self) -> str:
        lines = [f"digraph {self.flavor.lower()} {{"]

        def name(vid: int) -> str:
            node, (lo, hi) = self.vertices[vid]
            return f'"{node}@[{lo},{hi}]"'

        for arc in self.arcs:
            cap = "inf" if arc.capacity == INF else str(arc.capacity)
            lines.append(f"  {name(arc.tail)} -> {name(arc.head)} [label={cap}];")
        lines.append("}")
        return "\n".join(lines)


def _single_terminals(net: TemporalNetwork) -> tuple[str, str]:
    if len(net.sources) != 1 or len(net.sinks) != 1:
        raise ModelError("expansion requires a single source and a single sink")
    return next(iter(net.sources)), next(iter(net.sinks))


def build_ten(net: TemporalNetwork, budget: int = DEFAULT_TEN_BUDGET) -> ExpandedGraph:
    """Full expansion: vertices V x [0, T], unit-time holdover arcs.

    The max-flow value of this graph equals the maximum flow over time of
    the network, which is why it serves as the ground-truth oracle.
    """
    T = net.horizon
    size = len(net.nodes) * (T + 1)
    if size > budget:
        raise OracleBudgetError(
            f"full expansion needs {size} vertices, over the budget of {budget}"
        )
    s, d = _single_terminals(net)
    vertices = tuple((i, (t, t)) for i in net.nodes for t in range(T + 1))
    index = {lab: k for k, lab in enumerate(vertices)}
    arcs: list[Arc] = []
    for i in net.nodes:
        for t in range(T):
            arcs.append(Arc(index[(i, (t, t))], index[(i, (t + 1, t + 1))], INF))
    for (i, j), fn in net.edges.items():
        for (a, b, u, tau) in merged_pieces(fn.capacity, fn.travel_time):
            if u == 0:
                continue
            for t in range(a, min(b, T - tau) + 1):
                arcs.append(Arc(index[(i, (t, t))], index[(j, (t + tau, t + tau))], u))
    return ExpandedGraph(
        "TEN", vertices, tuple(arcs), index[(s, (0, 0))], index[(d, (T, T))], index
    )


def _edge_arcs(pieces: list, departures, starts, targets):
    """Summed capacities of one edge between departure and target intervals.

    ``pieces`` are the edge's ``merged_pieces``; ``departures`` and
    ``targets`` are sorted disjoint intervals and ``starts`` the targets'
    first steps.  Yields ``(k, m, capacity)`` for each departure k and
    target m with positive capacity, by k and then m.  The capacity is the
    exact sum of u(t) over t in departure k with t + travel_time(t) in
    target m: the departures of a piece within [a, b] arrive over
    [first, last] = [max(p, a) + tau, min(q, b) + tau], and target
    [a', b'] counts min(b', last) - max(a', first) + 1 of them, so each
    (piece, departure) overlap costs one bisect and one step per target hit.
    """
    n = 0  # first piece not ending before the current departure interval
    for k, (a, b) in enumerate(departures):
        while pieces[n][1] < a:
            n += 1
        sums: dict[int, int | float] = {}
        for p, q, u, tau in islice(pieces, n, None):
            if p > b:
                break
            if u == 0:
                continue
            first, last = max(p, a) + tau, min(q, b) + tau
            m = bisect_right(starts, first) - 1
            if m < 0 or targets[m][1] < first:
                m += 1
            while m < len(targets) and starts[m] <= last:
                lo, hi = targets[m]
                sums[m] = sums.get(m, 0) + u * (min(hi, last) - max(lo, first) + 1)
                m += 1
        for m in sorted(sums):
            yield k, m, sums[m]


def cten_edge_capacity(pieces: list, interval: Interval, target: Interval) -> int | float:
    """Total capacity of departures in ``interval`` arriving in ``target``.

    ``pieces`` are an edge's ``merged_pieces``; this is the sweep of
    ``build_cten`` restricted to one (departure, target) pair.
    """
    return sum(cap for _, _, cap in _edge_arcs(pieces, (interval,), (target[0],), (target,)))


def build_cten(net: TemporalNetwork, breakpoints: dict[str, tuple[int, ...]]) -> ExpandedGraph:
    """Condensed expansion over per-node interval partitions.

    Vertex (i, k) of node i's k-th interval has id offset[i] + k.  Each
    edge's merged pieces are swept once against its tail's intervals.
    With every breakpoint set equal to {0, ..., T} this is arc-for-arc the
    full expansion.  Arcs whose summed capacity is zero are omitted.
    """
    T = net.horizon
    s, d = _single_terminals(net)
    parts = {i: intervals_of(breakpoints[i], T) for i in net.nodes}
    offset: dict[str, int] = {}
    vertices: list[tuple[str, Interval]] = []
    arcs: list[Arc] = []
    for i in net.nodes:
        offset[i] = base = len(vertices)
        ivs = parts[i].intervals
        vertices += ((i, iv) for iv in ivs)
        arcs += (Arc(base + k, base + k + 1, INF) for k in range(len(ivs) - 1))
    for (i, j), fn in net.edges.items():
        base_i, base_j, tgt = offset[i], offset[j], parts[j]
        pieces = merged_pieces(fn.capacity, fn.travel_time)
        for k, m, cap in _edge_arcs(pieces, parts[i].intervals, tgt.points, tgt.intervals):
            arcs.append(Arc(base_i + k, base_j + m, cap))
    return ExpandedGraph(
        "cTEN",
        tuple(vertices),
        tuple(arcs),
        offset[s],
        offset[d] + len(parts[d].intervals) - 1,
        {lab: k for k, lab in enumerate(vertices)},
    )
