"""Core data model: piecewise-constant functions, temporal networks, flows.

Times are integers throughout.  Capacities, travel times, and demands are
integers, with ``INF`` as a distinguished capacity value that absorbs under
addition.  All arithmetic that could grow with the horizon is width-checked
against ``MAX_INT``; overflow is a hard input-rejection error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

INF = float("inf")
MAX_INT = 2**63 - 1


class ModelError(ValueError):
    """Invalid model data (construction-time rejection)."""


class DomainError(ModelError):
    """A time outside the function's domain was queried."""


class OverflowRejection(ModelError):
    """A derived quantity would not fit the machine integer range."""


def check_width(value, context: str):
    """Reject quantities that exceed the machine integer range.

    ``INF`` passes through: it is a distinguished value, not a number that
    can wrap around.
    """
    if value != INF and abs(value) > MAX_INT:
        raise OverflowRejection(f"{context}: {value} exceeds machine integer range")
    return value


_piece_start = itemgetter(0)


def _is_cap(v) -> bool:
    return v == INF or (isinstance(v, int) and not isinstance(v, bool) and v >= 0)


@dataclass(frozen=True)
class PiecewiseConstFn:
    """A step function on an integer interval [0, T].

    ``pieces`` is a sorted tuple of ``(start, end, value)`` triples with
    closed integer ranges that tile the domain exactly.
    """

    pieces: tuple[tuple[int, int, int | float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ModelError("piecewise function needs at least one piece")
        prev_end = None
        for start, end, value in self.pieces:
            if not (isinstance(start, int) and isinstance(end, int)):
                raise ModelError("piece endpoints must be integers")
            if start > end:
                raise ModelError(f"piece [{start}, {end}] has start > end")
            if prev_end is None:
                if start != 0:
                    raise ModelError("pieces must start at 0")
            elif start != prev_end + 1:
                raise ModelError(
                    f"pieces must tile the domain: gap/overlap at {prev_end}..{start}"
                )
            if not _is_cap(value):
                raise ModelError(f"piece value {value!r} is not a non-negative integer or INF")
            check_width(value, "piece value")
            prev_end = end

    @classmethod
    def constant(cls, value, horizon: int) -> "PiecewiseConstFn":
        return cls(((0, horizon, value),))

    @property
    def horizon(self) -> int:
        return self.pieces[-1][1]

    def __call__(self, t: int):
        if not (0 <= t <= self.horizon):
            raise DomainError(f"t={t} outside domain [0, {self.horizon}]")
        return self.pieces[bisect_right(self.pieces, t, key=_piece_start) - 1][2]

    def is_constant(self) -> bool:
        return len({p[2] for p in self.pieces}) == 1

    def breakpoints(self) -> list[int]:
        return [p[0] for p in self.pieces]


def merged_pieces(
    cap: PiecewiseConstFn, tt: PiecewiseConstFn
) -> list[tuple[int, int, int | float, int]]:
    """Minimal tiling of the domain on which both functions are constant.

    Returns ``(start, end, capacity, travel_time)`` per merged piece;
    adjacent pieces with identical values are coalesced.  Both piece lists
    tile the same domain, so one pass with a pointer into each merges them.
    """
    caps, tts = cap.pieces, tt.pieces
    ci = ti = 0
    start = 0
    out: list[tuple[int, int, int | float, int]] = []
    while ci < len(caps):
        _, cap_end, u = caps[ci]
        _, tt_end, tau = tts[ti]
        end = min(cap_end, tt_end)
        if out and out[-1][2] == u and out[-1][3] == tau:
            out[-1] = (out[-1][0], end, u, tau)
        else:
            out.append((start, end, u, tau))
        if cap_end == end:
            ci += 1
        if tt_end == end:
            ti += 1
        start = end + 1
    return out


@dataclass(frozen=True)
class EdgeFn:
    """Capacity and travel time of one directed edge."""

    capacity: PiecewiseConstFn
    travel_time: PiecewiseConstFn

    def __post_init__(self):
        if self.capacity.horizon != self.travel_time.horizon:
            raise ModelError("capacity and travel-time domains differ")
        for _, _, tau in self.travel_time.pieces:
            if tau == INF or tau < 0:
                raise ModelError("travel times must be non-negative integers")


@dataclass(frozen=True)
class TemporalNetwork:
    """Directed network with piecewise-constant capacities and travel times.

    Sources have no in-edges and sinks no out-edges; there are no parallel
    edges and no self-loops.  Zero travel times are legal (the reductions
    rely on them) but user-facing input validation warns about them.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], EdgeFn]
    sources: frozenset[str]
    sinks: frozenset[str]
    horizon: int

    def __post_init__(self):
        nodeset = set(self.nodes)
        if len(nodeset) != len(self.nodes):
            raise ModelError("duplicate node ids")
        if self.horizon < 0:
            raise ModelError("horizon must be non-negative")
        if self.sources & self.sinks:
            raise ModelError("a node cannot be both source and sink")
        if not (self.sources <= nodeset and self.sinks <= nodeset):
            raise ModelError("terminal outside node set")
        for (i, j), fn in self.edges.items():
            if i == j:
                raise ModelError(f"self-loop at {i}")
            if i not in nodeset or j not in nodeset:
                raise ModelError(f"edge ({i}, {j}) references unknown node")
            if j in self.sources:
                raise ModelError(f"source {j} has an in-edge")
            if i in self.sinks:
                raise ModelError(f"sink {i} has an out-edge")
            if fn.capacity.horizon != self.horizon:
                raise ModelError(f"edge ({i}, {j}) functions not defined on [0, {self.horizon}]")

    @property
    def terminals(self) -> frozenset[str]:
        return self.sources | self.sinks

    def in_edges(self, j: str) -> list[tuple[str, str]]:
        return [e for e in self.edges if e[1] == j]

    def out_edges(self, i: str) -> list[tuple[str, str]]:
        return [e for e in self.edges if e[0] == i]

    def max_finite_capacity(self) -> int:
        best = 0
        for fn in self.edges.values():
            for _, _, u in fn.capacity.pieces:
                if u != INF:
                    best = max(best, u)
        return best

    def is_static(self) -> bool:
        return all(
            fn.capacity.is_constant() and fn.travel_time.is_constant()
            for fn in self.edges.values()
        )


@dataclass(frozen=True)
class DemandVector:
    """Required net flow into each terminal at the horizon.

    Sources carry negative values (they emit supply), sinks positive.
    """

    values: dict[str, int]

    def __post_init__(self):
        for node, v in self.values.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelError(f"demand of {node} must be an integer")
            check_width(v, f"demand of {node}")

    def __getitem__(self, node: str) -> int:
        return self.values[node]

    def get(self, node: str, default: int = 0) -> int:
        return self.values.get(node, default)

    def total(self, subset=None) -> int:
        if subset is None:
            return sum(self.values.values())
        return sum(self.values.get(i, 0) for i in subset)

    def required(self) -> int:
        """What the sinks must receive: the value of a saturating flow."""
        return sum(d for d in self.values.values() if d > 0)

    def check_balanced(self):
        if self.total() != 0:
            raise ModelError(f"total demand must be 0, got {self.total()}")

    def check_against(self, net: TemporalNetwork | OneShotNetwork):
        extra = set(self.values) - (net.sources | net.sinks)
        if extra:
            raise ModelError(f"demand given for non-terminals: {sorted(extra)}")
        for s in net.sources:
            if self.get(s) > 0:
                raise ModelError(f"source {s} has positive demand")
        for d in net.sinks:
            if self.get(d) < 0:
                raise ModelError(f"sink {d} has negative demand")


@dataclass(frozen=True)
class FlowOverTime:
    """Sparse flow assignment ``(edge, departure time) -> amount``."""

    flows: dict[tuple[tuple[str, str], int], int] = field(default_factory=dict)

    def amount(self, edge: tuple[str, str], t: int) -> int:
        return self.flows.get((edge, t), 0)


def net_flow(net: TemporalNetwork, f: FlowOverTime, i: str, t: int) -> int:
    """Arrivals into ``i`` by time ``t`` minus departures from ``i`` by ``t``.

    A departure on edge ji at time t' counts as arrived once
    t' + travel_time(t') <= t.
    """
    total = 0
    for (edge, t0), amount in f.flows.items():
        if amount == 0:
            continue
        tail, head = edge
        if head == i and t0 + net.edges[edge].travel_time(t0) <= t:
            total += amount
        if tail == i and t0 <= t:
            total -= amount
    return total


@dataclass(frozen=True)
class Violation:
    condition: str
    location: str
    time: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_flow(
    net: TemporalNetwork, horizon: int, f: FlowOverTime, v: DemandVector
) -> ValidationReport:
    """Check a flow against the flow-over-time conditions and the demands.

    Conditions: (1) edge capacity at the departure time, (2) departures in
    [0, T] arriving by T, (3) non-negative net flow at non-sources at every
    time, (4) zero net flow at non-terminals at T; plus net flow at every
    terminal equal to its demand.  Violations are data, not errors.
    """
    out: list[Violation] = []
    for (edge, t), amount in sorted(f.flows.items()):
        if amount == 0:
            continue
        if edge not in net.edges:
            out.append(Violation("edge-exists", f"{edge[0]}->{edge[1]}", t, "unknown edge"))
            continue
        fn = net.edges[edge]
        if t < 0 or t > horizon:
            out.append(
                Violation("horizon", f"{edge[0]}->{edge[1]}", t, f"departure {t} outside [0, {horizon}]")
            )
            continue
        if t + fn.travel_time(t) > horizon:
            out.append(
                Violation(
                    "horizon",
                    f"{edge[0]}->{edge[1]}",
                    t,
                    f"arrival {t + fn.travel_time(t)} after horizon {horizon}",
                )
            )
            continue
        cap = fn.capacity(t)
        if amount > cap:
            out.append(
                Violation(
                    "capacity", f"{edge[0]}->{edge[1]}", t, f"flow {amount} > capacity {cap}"
                )
            )
    # Net flow is a step function changing only at departure/arrival events,
    # so checking those times (plus T) covers all t.
    events: dict[str, set[int]] = {i: {horizon} for i in net.nodes}
    for (edge, t), amount in f.flows.items():
        if amount == 0 or edge not in net.edges or not (0 <= t <= horizon):
            continue
        tail, head = edge
        events[tail].add(t)
        arrive = t + net.edges[edge].travel_time(t)
        if arrive <= horizon:
            events[head].add(arrive)
    for i in net.nodes:
        for t in sorted(events[i]):
            nf = net_flow(net, f, i, t)
            if i not in net.sources and nf < 0:
                out.append(Violation("storage", i, t, f"net flow {nf} < 0"))
        nf_end = net_flow(net, f, i, horizon)
        if i not in net.terminals and nf_end != 0:
            out.append(Violation("conservation", i, horizon, f"net flow {nf_end} != 0"))
        elif i in net.terminals and nf_end != v.get(i):
            out.append(
                Violation("demand", i, horizon, f"net flow {nf_end} != demand {v.get(i)}")
            )
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class OneShotEdge:
    alpha: int
    beta: int
    capacity: int | float
    travel_time: int


@dataclass(frozen=True)
class OneShotNetwork:
    """Temporal network where each edge is live on one window [alpha, beta]."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], OneShotEdge]
    sources: frozenset[str]
    sinks: frozenset[str]
    horizon: int

    def __post_init__(self):
        for (i, j), e in self.edges.items():
            if not (0 <= e.alpha <= e.beta <= self.horizon):
                raise ModelError(f"edge ({i}, {j}) window [{e.alpha}, {e.beta}] invalid")
            if not _is_cap(e.capacity) or e.capacity == 0:
                raise ModelError(f"edge ({i}, {j}) capacity must be positive or INF")
            if not (isinstance(e.travel_time, int) and e.travel_time >= 0):
                raise ModelError(f"edge ({i}, {j}) travel time must be a non-negative integer")


@dataclass(frozen=True)
class OneShotTrace:
    """Origin of every one-shot element in the source network.

    ``edge_origin`` maps one-shot edges either to ``("window", orig_edge,
    piece_index)`` (the edge carrying an active window of the original
    edge) or to ``("relay", orig_edge, piece_index)`` (the zero-length
    always-on edge out of a relay node).  ``relay_nodes`` maps inserted
    nodes to their original edge.
    """

    edge_origin: dict[tuple[str, str], tuple[str, tuple[str, str], int]]
    relay_nodes: dict[str, tuple[str, str]]


def compute_mu(net: TemporalNetwork) -> int:
    """Total number of pieces on which capacity and travel time are both constant."""
    return sum(
        len(merged_pieces(fn.capacity, fn.travel_time)) for fn in net.edges.values()
    )


def live_windows(pieces: list, horizon: int) -> list[tuple[int, int, int, int | float, int]]:
    """The live windows ``(k, a, b, u, tau)`` of an edge's merged pieces.

    k is the piece's index in ``pieces``.  Pieces with zero capacity are
    dropped, and windows are clipped to b <= T - tau so departures arrive
    by the horizon (a window left empty is dropped); both are
    feasibility-preserving.
    """
    windows = []
    for k, (a, b, u, tau) in enumerate(pieces):
        if u == 0:
            continue
        if b > horizon - tau:
            b = horizon - tau
        if a <= b:
            windows.append((k, a, b, u, tau))
    return windows


def relay_name(i: str, j: str, k: int, existing: set[str]) -> str:
    """The relay node ``to_one_shot`` puts on piece k of edge ij, added to ``existing``.

    It is ``i>j#k``, primed until no name in ``existing`` equals it.
    """
    relay = f"{i}>{j}#{k}"
    while relay in existing:
        relay += "'"
    existing.add(relay)
    return relay


def to_one_shot(net: TemporalNetwork) -> tuple[OneShotNetwork, OneShotTrace]:
    """Split every edge into one edge per live window (``live_windows``).

    The first window keeps the original endpoints; each further window
    goes through a fresh relay node (window edge into the relay, zero-length
    always-on edge out) so no parallel edges arise.
    """
    T = net.horizon
    nodes = list(net.nodes)
    existing = set(nodes)
    edges: dict[tuple[str, str], OneShotEdge] = {}
    edge_origin: dict[tuple[str, str], tuple[str, tuple[str, str], int]] = {}
    relay_nodes: dict[str, tuple[str, str]] = {}
    for (i, j), fn in net.edges.items():
        windows = live_windows(merged_pieces(fn.capacity, fn.travel_time), T)
        for n, (k, a, b, u, tau) in enumerate(windows):
            if n == 0:
                edges[(i, j)] = OneShotEdge(a, b, u, tau)
                edge_origin[(i, j)] = ("window", (i, j), k)
            else:
                relay = relay_name(i, j, k, existing)
                nodes.append(relay)
                relay_nodes[relay] = (i, j)
                edges[(i, relay)] = OneShotEdge(a, b, u, tau)
                edge_origin[(i, relay)] = ("window", (i, j), k)
                edges[(relay, j)] = OneShotEdge(0, T, u, 0)
                edge_origin[(relay, j)] = ("relay", (i, j), k)
    one_shot = OneShotNetwork(tuple(nodes), edges, net.sources, net.sinks, T)
    return one_shot, OneShotTrace(edge_origin, relay_nodes)


def project_one_shot_flow(
    net: TemporalNetwork, trace: OneShotTrace, f: FlowOverTime
) -> FlowOverTime:
    """Map a flow on the one-shot network back onto the original network.

    A window edge carries the original departure; the relay leg only models
    storage already available at the head node, so its flow is dropped.
    """
    flows: dict[tuple[tuple[str, str], int], int] = {}
    for (edge, t), amount in f.flows.items():
        if amount == 0:
            continue
        kind, orig, _ = trace.edge_origin[edge]
        if kind == "window":
            key = (orig, t)
            flows[key] = flows.get(key, 0) + amount
    return FlowOverTime(flows)
