"""Core data model: piecewise-constant functions, temporal networks, flows.

Times are integers throughout.  Capacities, travel times, and demands are
integers, with ``INF`` as a distinguished capacity value that absorbs under
addition.  Inputs (piece values, demands, super-edge capacities) are
width-checked against ``MAX_INT``; an input past it is a hard rejection.
Sums derived from them, such as expansion capacities and flow values, are
exact Python integers.  Only the gadget form rejects a derived quantity,
its demand u * (T + 1) (``gadget.check_gadget_reducible``).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

INF = float("inf")
MAX_INT = 2**63 - 1


class ModelError(ValueError):
    """Invalid model data (construction-time rejection)."""


class DomainError(ModelError):
    """A time outside the function's domain was queried."""


class OverflowRejection(ModelError):
    """An input, or a gadget demand u * (T + 1), would not fit the machine integer range."""


def check_width(value, context: str):
    """Reject quantities that exceed the machine integer range.

    ``INF`` passes through: it is a distinguished value, not a number that
    can wrap around.
    """
    if value != INF and abs(value) > MAX_INT:
        raise OverflowRejection(f"{context}: {value} exceeds machine integer range")
    return value


class Value:
    """Base of the package's value types: equality, hash and repr by field.

    A subclass names its fields, in constructor order, in ``__slots__``,
    and its ``__init__`` runs its checks and sets them.  Two values are
    equal iff they have the same class and equal fields, and the hash is
    that of the fields' tuple, so hashing raises ``TypeError`` where a
    field holds a dict.  Values are immutable by convention only: no
    ``__setattr__`` guard stops an assignment, since one would route every
    field store through ``object.__setattr__``, as frozen dataclasses do,
    in the constructors that the parser and every quickest probe call.
    Use the constructors to derive a changed copy, so its checks run.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_piece_start = itemgetter(0)


def _is_cap(v) -> bool:
    return v == INF or (isinstance(v, int) and not isinstance(v, bool) and v >= 0)


def _tiling_error(start, end, prev_end: int) -> str:
    """Why a piece ``[start, end]`` after one ending at ``prev_end`` (-1: none) breaks the tiling."""
    if not (isinstance(start, int) and isinstance(end, int)):
        return "piece endpoints must be integers"
    if start > end:
        return f"piece [{start}, {end}] has start > end"
    if prev_end < 0:
        return "pieces must start at 0"
    return f"pieces must tile the domain: gap/overlap at {prev_end}..{start}"


class PiecewiseConstFn(Value):
    """A step function on an integer interval [0, T].

    ``pieces`` is a sorted tuple of ``(start, end, value)`` triples with
    closed integer ranges that tile the domain exactly.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[tuple[int, int, int | float], ...]):
        if not pieces:
            raise ModelError("piecewise function needs at least one piece")
        prev_end = -1
        for start, end, value in pieces:
            if not (isinstance(start, int) and isinstance(end, int) and start == prev_end + 1 <= end):
                raise ModelError(_tiling_error(start, end, prev_end))
            if not _is_cap(value):
                raise ModelError(f"piece value {value!r} is not a non-negative integer or INF")
            check_width(value, "piece value")
            prev_end = end
        self.pieces = pieces

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


class EdgeFn(Value):
    """Capacity and travel time of one directed edge."""

    __slots__ = ("capacity", "travel_time")

    def __init__(self, capacity: PiecewiseConstFn, travel_time: PiecewiseConstFn):
        if capacity.horizon != travel_time.horizon:
            raise ModelError("capacity and travel-time domains differ")
        for _, _, tau in travel_time.pieces:
            if tau == INF or tau < 0:
                raise ModelError("travel times must be non-negative integers")
        self.capacity = capacity
        self.travel_time = travel_time


class TemporalNetwork(Value):
    """Directed network with piecewise-constant capacities and travel times.

    Sources have no in-edges and sinks no out-edges; there are no parallel
    edges and no self-loops.  Zero travel times are legal (the reductions
    rely on them) but user-facing input validation warns about them.
    """

    __slots__ = ("nodes", "edges", "sources", "sinks", "horizon")

    def __init__(
        self,
        nodes: tuple[str, ...],
        edges: dict[tuple[str, str], EdgeFn],
        sources: frozenset[str],
        sinks: frozenset[str],
        horizon: int,
    ):
        nodeset = set(nodes)
        if len(nodeset) != len(nodes):
            raise ModelError("duplicate node ids")
        if horizon < 0:
            raise ModelError("horizon must be non-negative")
        if sources & sinks:
            raise ModelError("a node cannot be both source and sink")
        if not (sources <= nodeset and sinks <= nodeset):
            raise ModelError("terminal outside node set")
        for (i, j), fn in edges.items():
            if i == j:
                raise ModelError(f"self-loop at {i}")
            if i not in nodeset or j not in nodeset:
                raise ModelError(f"edge ({i}, {j}) references unknown node")
            if j in sources:
                raise ModelError(f"source {j} has an in-edge")
            if i in sinks:
                raise ModelError(f"sink {i} has an out-edge")
            if fn.capacity.horizon != horizon:
                raise ModelError(f"edge ({i}, {j}) functions not defined on [0, {horizon}]")
        self.nodes = nodes
        self.edges = edges
        self.sources = sources
        self.sinks = sinks
        self.horizon = horizon

    @property
    def terminals(self) -> frozenset[str]:
        return self.sources | self.sinks

    def windows(self) -> dict[tuple[str, str], list]:
        """Each edge's ``live_windows``, read off its merged pieces."""
        return {
            e: live_windows(merged_pieces(fn.capacity, fn.travel_time), self.horizon)
            for e, fn in self.edges.items()
        }

    def is_static(self) -> bool:
        return all(
            fn.capacity.is_constant() and fn.travel_time.is_constant()
            for fn in self.edges.values()
        )


class DemandVector(Value):
    """Required net flow into each terminal at the horizon.

    Sources carry negative values (they emit supply), sinks positive.
    """

    __slots__ = ("values",)

    def __init__(self, values: dict[str, int]):
        for node, v in values.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelError(f"demand of {node} must be an integer")
            check_width(v, f"demand of {node}")
        self.values = values

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

    def check_against(self, net: TemporalNetwork):
        """Reject demands off the terminals or of the wrong sign (a one-shot network too)."""
        extra = set(self.values) - (net.sources | net.sinks)
        if extra:
            raise ModelError(f"demand given for non-terminals: {sorted(extra)}")
        for s in net.sources:
            if self.get(s) > 0:
                raise ModelError(f"source {s} has positive demand")
        for d in net.sinks:
            if self.get(d) < 0:
                raise ModelError(f"sink {d} has negative demand")


class FlowOverTime(Value):
    """Sparse flow assignment ``(edge, departure time) -> amount``.

    Without ``flows``, each flow gets a fresh empty dict.
    """

    __slots__ = ("flows",)

    def __init__(self, flows: dict[tuple[tuple[str, str], int], int] | None = None):
        self.flows = {} if flows is None else flows


class Violation(Value):
    __slots__ = ("condition", "location", "time", "detail")

    def __init__(self, condition: str, location: str, time: int | None, detail: str):
        self.condition = condition
        self.location = location
        self.time = time
        self.detail = detail


class ValidationReport(Value):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_flow(net: TemporalNetwork, f: FlowOverTime, v: DemandVector) -> ValidationReport:
    """Check a flow against the flow-over-time conditions and the demands.

    T is the network's horizon.  Conditions: (1) 0 <= flow <= edge
    capacity at the departure time, (2) departures in [0, T] arriving by T,
    (3) non-negative net flow at non-sources at every time, (4) zero net
    flow at non-terminals at T; plus net flow at every terminal equal to
    its demand.  Violations are data, not errors: an unknown edge or a
    departure outside [0, T] is reported; its flow leaves its tail when it
    departs but never arrives.
    """
    horizon = net.horizon
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
        if not 0 <= amount <= cap:
            bound = "< 0" if amount < 0 else f"> capacity {cap}"
            out.append(Violation("capacity", f"{edge[0]}->{edge[1]}", t, f"flow {amount} {bound}"))
    # Net flow is a step function changing only at departure/arrival events,
    # so checking those times (plus T) covers all t.  Each node's changes to
    # it are sorted once and summed up to each event time in turn; a
    # departure counts at its tail even where it is itself a violation.
    events: dict[str, set[int]] = {i: {horizon} for i in net.nodes}
    changes: dict[str, list[tuple[int, int]]] = {i: [] for i in net.nodes}
    for (edge, t), amount in f.flows.items():
        if amount == 0:
            continue
        tail, head = edge
        if tail in changes:
            changes[tail].append((t, -amount))
        if edge not in net.edges or not (0 <= t <= horizon):
            continue
        events[tail].add(t)
        arrive = t + net.edges[edge].travel_time(t)
        if arrive <= horizon:
            events[head].add(arrive)
            changes[head].append((arrive, amount))
    for i in net.nodes:
        deltas = sorted(changes[i])
        nf = k = 0
        for t in sorted(events[i]):
            while k < len(deltas) and deltas[k][0] <= t:
                nf += deltas[k][1]
                k += 1
            if i not in net.sources and nf < 0:
                out.append(Violation("storage", i, t, f"net flow {nf} < 0"))
        # T is the last event time, so nf is now the net flow at T.
        if i not in net.terminals and nf != 0:
            out.append(Violation("conservation", i, horizon, f"net flow {nf} != 0"))
        elif i in net.terminals and nf != v.get(i):
            out.append(Violation("demand", i, horizon, f"net flow {nf} != demand {v.get(i)}"))
    return ValidationReport(tuple(out))


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
    feasibility-preserving.  Every reader of an edge's live departures
    reads these windows; none restates the rule.
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
