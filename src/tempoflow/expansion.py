"""Time-expanded networks as steady-state graphs over (node, interval) vertices.

The condensed expansion groups each node's time steps into the intervals
of a per-node breakpoint set; arc capacities are the exact sums of the
per-step capacities, computed in closed form per constant piece so no
loop over the horizon ever runs.  Each live piece of an edge is swept
once: its departures walk the tail's interval starts and the head's
starts shifted back by the travel time together, and every elementary
segment between two such starts adds its capacity to one (departure,
target) interval pair.  Super terminals add no edges to sweep: s* and d*
are vertices over their own sets, and each terminal with a positive
capacity adds one arc, from s*'s first vertex to a source's first vertex
or from a sink's last vertex to d*'s last.  Arcs are stored flat, as
parallel tail, head and capacity tuples that max flow reads directly.
The full expansion (one vertex per node and time step) is the condensed
one over the sets {0, ..., T}; it is the brute-force oracle and is gated
by an explicit size budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import pairwise

from .model import INF, ModelError, TemporalNetwork
from .reductions import SuperTerminals, inner_parts

DEFAULT_TEN_BUDGET = 2_000_000


class OracleBudgetError(ModelError):
    """The full expansion would exceed the configured size budget."""


Interval = tuple[int, int]


def _bounds(points, horizon: int) -> list[int]:
    """A breakpoint set's interval starts followed by T + 1.

    Interval k is [bounds[k], bounds[k + 1] - 1], so breakpoints
    a_1 < ... < a_p (with a_1 = 0, a_p = T) induce the intervals
    [a_j, a_{j+1} - 1] plus the final singleton [T, T].
    """
    pts = sorted(set(points))
    if not pts or pts[0] != 0 or pts[-1] != horizon:
        raise ModelError(f"breakpoint set must contain 0 and {horizon}: {tuple(pts)}")
    pts.append(horizon + 1)
    return pts


def _intervals(bounds: list[int]) -> list[Interval]:
    # A singleton interval repeats its start's int object rather than a
    # fresh ``nxt - 1``: a full expansion holds one per vertex.
    return [(lo, lo if nxt - lo == 1 else nxt - 1) for lo, nxt in pairwise(bounds)]


def intervals_of(points, horizon: int) -> tuple[Interval, ...]:
    """Closed integer intervals covering [0, T] induced by a breakpoint set.

    The points are exactly the intervals' first steps.
    """
    return tuple(_intervals(_bounds(points, horizon)))


@dataclass(frozen=True)
class ExpandedGraph:
    """Steady-state flow graph over (node, interval) vertices.

    Arc k runs from ``tails[k]`` to ``heads[k]`` with capacity ``caps[k]``.
    ``ranges[i]`` holds node i's vertex ids, one per interval in time order.
    """

    vertices: tuple[tuple[str, Interval], ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    caps: tuple[int | float, ...]
    source: int
    sink: int
    ranges: dict[str, range] = field(repr=False)

    @property
    def arcs(self) -> range:
        """The arc ids, indexing ``tails``, ``heads`` and ``caps``."""
        return range(len(self.caps))

    def vertex_at(self, node: str, t: int) -> int:
        """The vertex of ``node`` whose interval contains step t."""
        ids = self.ranges[node]
        horizon = self.vertices[ids[-1]][1][1]
        if not (0 <= t <= horizon):
            raise ModelError(f"t={t} outside [0, {horizon}]")
        return bisect_right(self.vertices, t, ids.start, ids.stop, key=lambda lab: lab[1][0]) - 1

    def label(self, vid: int) -> tuple[str, Interval]:
        return self.vertices[vid]

    def departures(self, arc_flows) -> dict[tuple[tuple[str, str], int], int]:
        """Positive flow of a full expansion per ``((i, j), departure)``; holdovers skipped."""
        out: dict[tuple[tuple[str, str], int], int] = {}
        for tail, head, amount in zip(self.tails, self.heads, arc_flows, strict=True):
            if amount <= 0:
                continue
            (i, (t, _)), (j, _) = self.vertices[tail], self.vertices[head]
            if i != j:
                out[(i, j), t] = out.get(((i, j), t), 0) + amount
        return out

    def to_dot(self, name: str) -> str:
        """Graphviz text of the arcs, as the digraph ``name``."""
        lines = [f"digraph {name} {{"]

        def vertex_name(vid: int) -> str:
            node, (lo, hi) = self.vertices[vid]
            return f'"{node}@[{lo},{hi}]"'

        for tail, head, cap in zip(self.tails, self.heads, self.caps):
            label = "inf" if cap == INF else str(cap)
            lines.append(f"  {vertex_name(tail)} -> {vertex_name(head)} [label={label}];")
        lines.append("}")
        return "\n".join(lines)


def _single_terminals(net: TemporalNetwork | SuperTerminals) -> tuple[str, str]:
    if len(net.sources) != 1 or len(net.sinks) != 1:
        raise ModelError("expansion requires a single source and a single sink")
    return next(iter(net.sources)), next(iter(net.sinks))


def build_ten(
    net: TemporalNetwork | SuperTerminals, budget: int = DEFAULT_TEN_BUDGET
) -> ExpandedGraph:
    """Full expansion: vertices V x [0, T], unit-time holdover arcs.

    The max-flow value of this graph equals the maximum flow over time of
    the network, which is why it serves as the ground-truth oracle.  It is
    the condensed expansion with every breakpoint set {0, ..., T}.
    """
    T = net.horizon
    size = len(net.nodes) * (T + 1)
    if size > budget:
        raise OracleBudgetError(
            f"full expansion needs {size} vertices, over the budget of {budget}"
        )
    every_step = range(T + 1)
    return build_cten(net, {i: every_step for i in net.nodes})


def _edge_sums(pieces: list, tail: list[int], head: list[int], horizon: int) -> dict:
    """Summed capacities of one edge per (departure, target) interval pair.

    ``pieces`` are the edge's ``merged_pieces``, and ``tail`` and ``head``
    the ``_bounds`` of its endpoints.  Maps ``(k, m)`` to the exact sum of
    u(t) over the departures t in tail interval k that arrive in head
    interval m, for every pair with a positive sum; keys are inserted with
    k nondecreasing.  Each live piece [p, q] is first clipped to
    q <= T - tau, since a later departure would arrive after the horizon.
    Its departures then walk the tail's starts and the head's starts
    shifted by -tau together: each elementary segment [t, end) up to the
    next such start departs in one interval k and arrives in one interval
    m, and adds u * (end - t) to (k, m).
    """
    sums: dict[tuple[int, int], int | float] = {}
    k = 0
    for p, q, u, tau in pieces:
        stop = min(q, horizon - tau) + 1  # first departure past the clipped piece
        if u == 0 or p >= stop:
            continue
        k = bisect_right(tail, p, k) - 1
        m = bisect_right(head, p + tau) - 1
        t = p
        while t < stop:
            next_k, next_m = tail[k + 1], head[m + 1] - tau
            end = next_k if next_k < next_m else next_m
            if stop < end:
                end = stop
            key = (k, m)
            sums[key] = sums.get(key, 0) + u * (end - t)
            if end == next_k:
                k += 1
            if end == next_m:
                m += 1
            t = end
    return sums


def cten_edge_capacity(pieces: list, interval: Interval, target: Interval) -> int | float:
    """Total capacity of departures in ``interval`` arriving in ``target``.

    ``pieces`` are an edge's ``merged_pieces``; this is the sweep of
    ``build_cten`` over partitions that have the two intervals as blocks.
    """
    T = pieces[-1][1]
    (a, b), (a2, b2) = interval, target
    tail, head = sorted({0, a, b + 1, T + 1}), sorted({0, a2, b2 + 1, T + 1})
    return _edge_sums(pieces, tail, head, T).get((tail.index(a), head.index(a2)), 0)


def build_cten(
    net: TemporalNetwork | SuperTerminals, breakpoints: dict[str, tuple[int, ...]]
) -> ExpandedGraph:
    """Condensed expansion over per-node interval partitions.

    Node i's k-th interval is vertex ranges[i][k], ids numbered node by
    node (s* and d* last, for super terminals).  Arcs come as every node's
    holdovers, then each edge's arcs by departure and then target
    interval, then the super arcs: s*'s first vertex to each source's
    first vertex (sources sorted), then each sink's last vertex to d*'s
    last vertex (sinks sorted), each with its terminal's capacity.  These
    are the arcs the super edges of ``SuperTerminals.materialize`` sweep
    into.  With every breakpoint set equal to {0, ..., T} this is the
    full expansion.  Arcs whose capacity is zero are omitted.
    """
    T = net.horizon
    s, d = _single_terminals(net)
    inner, pieces, super_caps = inner_parts(net)
    bounds = {i: _bounds(breakpoints[i], T) for i in net.nodes}
    # Arc endpoints are read from one list of ids so that all arcs at a
    # vertex share one int object: ints past 256 are not cached, and
    # offset + k would allocate one per endpoint, about a fifth of a full
    # expansion's memory.
    ids = list(range(sum(len(b) - 1 for b in bounds.values())))
    first: dict[str, int] = {}
    vertices: list[tuple[str, Interval]] = []
    tails: list[int] = []
    heads: list[int] = []
    for i in net.nodes:
        first[i] = lo = len(vertices)
        vertices += [(i, iv) for iv in _intervals(bounds[i])]
        hi = len(vertices)
        tails += ids[lo:hi - 1]
        heads += ids[lo + 1:hi]
    caps: list[int | float] = [INF] * len(tails)
    for (i, j), edge_pieces in pieces.items():
        lo_i, lo_j = first[i], first[j]
        for (k, m), cap in sorted(_edge_sums(edge_pieces, bounds[i], bounds[j], T).items()):
            tails.append(ids[lo_i + k])
            heads.append(ids[lo_j + m])
            caps.append(cap)
    ranges = {i: range(lo, lo + len(bounds[i]) - 1) for i, lo in first.items()}
    if super_caps:
        ends = [(ranges[s][0], ranges[t][0], t) for t in sorted(inner.sources)]
        ends += [(ranges[t][-1], ranges[d][-1], t) for t in sorted(inner.sinks)]
        for tail, head, t in ends:
            if super_caps[t]:
                tails.append(ids[tail])
                heads.append(ids[head])
                caps.append(super_caps[t])
    return ExpandedGraph(
        tuple(vertices), tuple(tails), tuple(heads), tuple(caps),
        ranges[s][0], ranges[d][-1], ranges,
    )
