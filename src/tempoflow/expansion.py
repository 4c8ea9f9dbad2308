"""Time-expanded networks as steady-state graphs over (node, interval) vertices.

The condensed expansion groups each node's time steps into the intervals
of a per-node breakpoint set (0 and any further starts within [0, T]; the
last interval ends at T); arc capacities are the exact sums of the
per-step capacities, computed in closed form per live window
(``live_windows``) so no loop over the horizon ever runs.  One loop over
the nodes gives each its interval bounds, its vertex ids and its
holdovers; a set that is already strictly increasing, as the breakpoint
readers and ``build_ten`` give, is taken as it is.  Each window is swept
once (edges with none are skipped): its departures walk the tail's
interval starts and the head's starts shifted back by the travel time
together, and every elementary segment between two such starts adds its
capacity to one (departure, target) interval pair.  Super terminals add
no edges to sweep: s* and d* are vertices over their own sets, and each
terminal with a positive capacity adds one arc, from s*'s first vertex
to a source's first vertex or from a sink's last vertex to d*'s last.  Arcs
are stored flat, as parallel tail, head and capacity tuples that max
flow reads directly.  A graph holds ints only: besides the arcs, each
node's range of vertex ids and its interval bounds (the starts, then
T + 1).  Vertex labels (node, (lo, hi)) are derived from the bounds when
asked for; no solver reads them.  The full expansion (one vertex per
time step at each of the network's own nodes) is the condensed one over
the sets {0, ..., T}, with s* and d* over {0}, one vertex each, as in
every condensed expansion; it is the brute-force oracle, gated by a size
budget that ``ten_size`` counts.  It retains about 64 bytes a vertex (a
bound and a shared id, each an int past the small-int cache) and 24 an
arc (three tuple slots); storing the labels would add about 112 bytes a
vertex.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from itertools import pairwise
from operator import ge

from .model import INF, ModelError, TemporalNetwork, Value
from .reductions import D_STAR, S_STAR, SuperTerminals, inner_parts

DEFAULT_TEN_BUDGET = 2_000_000


class OracleBudgetError(ModelError):
    """The full expansion would exceed the configured size budget."""


Interval = tuple[int, int]


def _bounds(points, horizon: int) -> list[int]:
    """A breakpoint set's interval starts followed by T + 1.

    Interval k is [bounds[k], bounds[k + 1] - 1], so breakpoints
    0 = a_1 < ... < a_p <= T induce the intervals [a_j, a_{j+1} - 1],
    the last being [a_p, T].  A strictly increasing set, as both
    breakpoint readers and ``build_ten`` give, is taken as it is; any
    other is sorted and deduplicated first.
    """
    pts = list(points)
    if len(pts) > 1 and any(map(ge, pts, pts[1:])):
        pts = sorted(set(pts))
    if not pts or pts[0] != 0 or pts[-1] > horizon:
        raise ModelError(
            f"breakpoint set must contain 0 and lie within [0, {horizon}]: {tuple(pts)}"
        )
    pts.append(horizon + 1)
    return pts


def _intervals(bounds: list[int]) -> list[Interval]:
    return [(lo, nxt - 1) for lo, nxt in pairwise(bounds)]


class ExpandedGraph(Value):
    """Steady-state flow graph over (node, interval) vertices.

    Arc k runs from ``tails[k]`` to ``heads[k]`` with capacity ``caps[k]``.
    ``ranges[i]`` holds node i's vertex ids, one per interval in time order,
    and ``bounds[i]`` that node's ``_bounds``: its k-th vertex stands for
    the interval [bounds[i][k], bounds[i][k + 1] - 1], and its last ends
    at T.  Labels are not stored; ``vertices`` and the readers below
    derive them.
    """

    __slots__ = ("bounds", "tails", "heads", "caps", "source", "sink", "ranges")

    def __init__(
        self,
        bounds: dict[str, list[int]],
        tails: tuple[int, ...],
        heads: tuple[int, ...],
        caps: tuple[int | float, ...],
        source: int,
        sink: int,
        ranges: dict[str, range],
    ):
        self.bounds = bounds
        self.tails = tails
        self.heads = heads
        self.caps = caps
        self.source = source
        self.sink = sink
        self.ranges = ranges

    @property
    def arcs(self) -> range:
        """The arc ids, indexing ``tails``, ``heads`` and ``caps``."""
        return range(len(self.caps))

    @property
    def vertex_count(self) -> int:
        """The number of vertices, one per interval of each node."""
        return sum(map(len, self.ranges.values()))

    @property
    def vertices(self) -> tuple[tuple[str, Interval], ...]:
        """Every vertex's ``(node, interval)`` label, in id order."""
        return tuple((i, iv) for i in self.ranges for iv in _intervals(self.bounds[i]))

    def departures(self, arc_flows) -> dict[tuple[tuple[str, str], int], int]:
        """Positive flow of a full expansion per ``((i, j), departure)``; holdovers skipped."""
        nodes = list(self.ranges)
        starts = [ids.start for ids in self.ranges.values()]
        out: dict[tuple[tuple[str, str], int], int] = {}
        for tail, head, amount in zip(self.tails, self.heads, arc_flows, strict=True):
            if amount <= 0:
                continue
            k = bisect_right(starts, tail) - 1
            m = bisect_right(starts, head) - 1
            if k != m:
                i = nodes[k]
                key = (i, nodes[m]), self.bounds[i][tail - starts[k]]
                out[key] = out.get(key, 0) + amount
        return out

    def to_dot(self, name: str) -> str:
        """Graphviz text of the arcs, as the digraph ``name``; ``"`` in a node id becomes ``\\"``."""
        quoted = {node: node.replace('"', '\\"') for node in self.ranges}
        names = [f'"{quoted[node]}@[{lo},{hi}]"' for node, (lo, hi) in self.vertices]
        lines = [f"digraph {name} {{"]
        for tail, head, cap in zip(self.tails, self.heads, self.caps):
            label = "inf" if cap == INF else str(cap)
            lines.append(f"  {names[tail]} -> {names[head]} [label={label}];")
        lines.append("}")
        return "\n".join(lines)


def _single_terminals(net: TemporalNetwork | SuperTerminals) -> tuple[str, str]:
    if len(net.sources) != 1 or len(net.sinks) != 1:
        raise ModelError("expansion requires a single source and a single sink")
    return next(iter(net.sources)), next(iter(net.sinks))


def ten_size(net: TemporalNetwork | SuperTerminals) -> tuple[int, int]:
    """The full expansion's vertex and arc counts, without building it.

    n (T + 1) vertices for the network's n own nodes, with n T holdovers;
    s* and d* add one vertex each and no holdover.  Besides holdovers,
    b - a + 1 arcs per live window (one per departure step), and one per
    terminal with a positive super capacity.
    """
    T = net.horizon
    inner, windows, super_caps = inner_parts(net)
    n = len(inner.nodes)
    vertices, holdovers = n * (T + 1), n * T
    if isinstance(net, SuperTerminals):
        vertices += 2
    steps = sum(b - a + 1 for edge_windows in windows.values() for _, a, b, _, _ in edge_windows)
    return vertices, holdovers + steps + sum(1 for cap in super_caps.values() if cap)


def build_ten(
    net: TemporalNetwork | SuperTerminals, budget: int = DEFAULT_TEN_BUDGET
) -> ExpandedGraph:
    """Full expansion: the network's nodes at every step of [0, T], unit-time holdovers.

    The max-flow value of this graph equals the maximum flow over time of
    the network, which is why it serves as the ground-truth oracle.  It is
    the condensed expansion with every breakpoint set {0, ..., T}, except
    that s* and d* of a ``SuperTerminals`` value keep {0}, as in every
    condensed expansion: s* sends only at time 0 and d* receives only at
    T, so one vertex over [0, T] each carries all their flow.  They are
    numbered last, so every other vertex and arc is where a per-step s*
    and d* would put it, and max flow augments the same paths.  A plain
    network, a materialized super network included, is per step at every
    node.
    """
    size, _ = ten_size(net)
    if size > budget:
        raise OracleBudgetError(
            f"full expansion needs {size} vertices, over the budget of {budget}"
        )
    T = net.horizon
    sets = dict.fromkeys(net.nodes, range(T + 1))
    if isinstance(net, SuperTerminals):
        sets[S_STAR] = sets[D_STAR] = (0,)
    return build_cten(net, sets)


def _edge_sums(
    windows: list, tail: list[int], head: list[int]
) -> Iterable[tuple[tuple[int, int], int | float]]:
    """Summed capacities of one edge per (departure, target) interval pair, in pair order.

    ``windows`` are the edge's ``live_windows``, and ``tail`` and ``head``
    the ``_bounds`` of its endpoints.  Gives ``((k, m), sum)`` items, k and
    then m ascending: the exact sum of u(t) over the departures t in tail
    interval k that arrive in head interval m, for every pair with a
    positive sum.  A window [p, q] departs only steps that arrive by the
    horizon, with u > 0, so it is swept as it is: its departures walk the
    tail's starts and the head's starts shifted by -tau together, and
    each elementary segment [t, end) up to the next such start departs in
    one interval k and arrives in one interval m, and adds u * (end - t)
    to (k, m).  Within a window both k and m only grow, and k never falls
    from one window to the next, so the pairs come out in order unless a
    window starts below the last pair so far; only then are they sorted.
    """
    sums: dict[tuple[int, int], int | float] = {}
    key = (0, 0)
    ordered = True
    k = 0
    for _, p, q, u, tau in windows:
        k = bisect_right(tail, p, k) - 1
        m = bisect_right(head, p + tau) - 1
        if (k, m) < key:
            ordered = False
        t, stop = p, q + 1
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
    return sums.items() if ordered else sorted(sums.items())


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
    full expansion.  Arcs whose capacity is zero are omitted.  A set may
    come in any order and with repeats; one without 0 or with a point
    past T raises ``ModelError``.
    """
    T = net.horizon
    s, d = _single_terminals(net)
    inner, windows, super_caps = inner_parts(net)
    bounds: dict[str, list[int]] = {}
    ranges: dict[str, range] = {}
    # Arc endpoints are read from one list of ids so that all arcs at a
    # vertex share one int object: ints past 256 are not cached, and
    # offset + k would allocate one per endpoint, about a fifth of a full
    # expansion's memory.
    ids: list[int] = []
    tails: list[int] = []
    heads: list[int] = []
    hi = 0
    for i in net.nodes:
        bounds[i] = node_bounds = _bounds(breakpoints[i], T)
        lo = hi
        hi = lo + len(node_bounds) - 1
        ranges[i] = node_ids = range(lo, hi)
        ids += node_ids
        if hi - lo > 1:
            tails += ids[lo:hi - 1]
            heads += ids[lo + 1:hi]
    caps: list[int | float] = [INF] * len(tails)
    for (i, j), edge_windows in windows.items():
        if not edge_windows:
            continue
        lo_i, lo_j = ranges[i].start, ranges[j].start
        for (k, m), cap in _edge_sums(edge_windows, bounds[i], bounds[j]):
            tails.append(ids[lo_i + k])
            heads.append(ids[lo_j + m])
            caps.append(cap)
    if super_caps:
        top = ids[ranges[s].start]
        for t in sorted(inner.sources):
            if super_caps[t]:
                tails.append(top)
                heads.append(ids[ranges[t].start])
                caps.append(super_caps[t])
        bottom = ids[ranges[d][-1]]
        for t in sorted(inner.sinks):
            if super_caps[t]:
                tails.append(ids[ranges[t][-1]])
                heads.append(bottom)
                caps.append(super_caps[t])
    return ExpandedGraph(
        bounds, tuple(tails), tuple(heads), tuple(caps),
        ranges[s].start, ranges[d][-1], ranges,
    )
