"""Time-expanded networks, full and condensed, as steady-state graphs.

The full expansion (one vertex per node and time step) is the brute-force
oracle and is gated by an explicit size budget.  The condensed expansion
groups each node's time steps into the intervals of a per-node breakpoint
set; arc capacities are the exact sums of the per-step capacities, computed
in closed form per constant piece so no loop over the horizon ever runs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .model import INF, ModelError, TemporalNetwork, merged_pieces

DEFAULT_TEN_BUDGET = 2_000_000


class OracleBudgetError(ModelError):
    """The full expansion would exceed the configured size budget."""


Interval = tuple[int, int]


@dataclass(frozen=True)
class IntervalPartition:
    """Closed integer intervals covering [0, T] induced by a breakpoint set.

    Breakpoints a_1 < ... < a_p (with a_1 = 0, a_p = T) induce the
    intervals [a_j, a_{j+1} - 1] plus the final singleton [T, T].
    """

    points: tuple[int, ...]
    intervals: tuple[Interval, ...]

    def index_of(self, t: int) -> int:
        if not (0 <= t <= self.intervals[-1][1]):
            raise ModelError(f"t={t} outside [0, {self.intervals[-1][1]}]")
        idx = bisect_right(self.intervals, t, key=lambda iv: iv[0]) - 1
        return idx

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


@dataclass(frozen=True)
class Arc:
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


def cten_edge_capacity(pieces: list, interval: Interval, target: Interval) -> int | float:
    """Total capacity of departures in ``interval`` arriving in ``target``.

    ``pieces`` are an edge's ``merged_pieces``.  Exact sum of u(t) over t in
    the interval with t + travel_time(t) in the target, computed per constant
    piece in closed form: the arrivals from a piece [lo, hi] with travel time
    tau form [lo + tau, hi + tau], and the count of hits in [a', b'] is
    max(0, min(b', hi + tau) - max(a', lo + tau) + 1).
    """
    a, b = interval
    a2, b2 = target
    total: int | float = 0
    for (p, q, u, tau) in pieces:
        lo, hi = max(p, a), min(q, b)
        if lo > hi or u == 0:
            continue
        count = min(b2, hi + tau) - max(a2, lo + tau) + 1
        if count > 0:
            total = INF if u == INF else total + u * count
    return total


def build_cten(net: TemporalNetwork, breakpoints: dict[str, tuple[int, ...]]) -> ExpandedGraph:
    """Condensed expansion over per-node interval partitions.

    With every breakpoint set equal to {0, ..., T} this is arc-for-arc the
    full expansion.  Arcs whose summed capacity is zero are omitted.
    """
    T = net.horizon
    s, d = _single_terminals(net)
    parts = {i: intervals_of(breakpoints[i], T) for i in net.nodes}
    vertices = tuple((i, iv) for i in net.nodes for iv in parts[i].intervals)
    index = {lab: k for k, lab in enumerate(vertices)}
    arcs: list[Arc] = []
    for i in net.nodes:
        ivs = parts[i].intervals
        for k in range(len(ivs) - 1):
            arcs.append(Arc(index[(i, ivs[k])], index[(i, ivs[k + 1])], INF))
    for (i, j), fn in net.edges.items():
        pieces = merged_pieces(fn.capacity, fn.travel_time)
        tgt = parts[j]
        for interval in parts[i].intervals:
            # Candidate target intervals: those overlapping the arrival span
            # of any piece live inside this departure interval.
            seen: set[Interval] = set()
            for (p, q, u, tau) in pieces:
                lo, hi = max(p, interval[0]), min(q, interval[1])
                if lo > hi or u == 0:
                    continue
                first, last = lo + tau, min(hi + tau, T)
                if first > T:
                    continue
                k = tgt.index_of(first)
                while k < len(tgt.intervals) and tgt.intervals[k][0] <= last:
                    seen.add(tgt.intervals[k])
                    k += 1
            for target in sorted(seen):
                cap = cten_edge_capacity(pieces, interval, target)
                if cap != 0:
                    arcs.append(Arc(index[(i, interval)], index[(j, target)], cap))
    return ExpandedGraph(
        "cTEN",
        vertices,
        tuple(arcs),
        index[(s, parts[s].interval_of(0))],
        index[(d, parts[d].interval_of(T))],
        index,
    )
