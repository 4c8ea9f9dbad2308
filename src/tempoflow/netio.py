"""Text format for temporal networks, demands, flows, and verdicts.

The instance format is line-oriented:

    tn 1
    horizon <T>
    node <id> source <supply> | node <id> sink <demand> | node <id> internal
    edge <from> <to>
    piece <t0> <t1> cap <u|inf> tt <tau>

Tokens are separated by single spaces (empty tokens are dropped, and a
tab stays part of its token); ``#`` starts a comment, and blank lines
are skipped.  An integer is an optional ``-`` followed by ASCII digits.  ``piece`` lines belong to the most recent ``edge`` line
and must tile [0, T] exactly.  A source's ``<supply>`` is the
(non-negative) amount it emits; internally that is the demand value
-supply.  A zero travel time and demands that do not sum to 0 are
accepted with a warning.  Errors are ``ParseError``s reading
``line L, column C: ...``.  Flow files hold ``flow <from> <to> <t>
<amount>`` lines.  Verdicts serialize as ``FEASIBLE`` or
``INFEASIBLE violated=<ids> oT=<n> negv=<n>``.

Parsing is one pass over the lines, linear in the text: each line is
split once (``_split``), and a token's column is worked out (``_tokens``)
only when a check fails.
"""

from __future__ import annotations

import random

from .model import (
    INF,
    DemandVector,
    EdgeFn,
    FlowOverTime,
    ModelError,
    PiecewiseConstFn,
    TemporalNetwork,
    Value,
)
from .reductions import D_STAR, S_STAR, SuperTerminals
from .expansion import build_ten
from .maxflow import max_flow

FORMAT_TAG = "tn 1"


class ParseError(ModelError):
    """Malformed instance text; the message carries line and column."""

    def __init__(self, line_no: int, column: int, message: str):
        super().__init__(f"line {line_no}, column {column}: {message}")
        self.line_no = line_no
        self.column = column


class ParsedInstance(Value):
    __slots__ = ("network", "demands", "warnings")

    def __init__(self, network: TemporalNetwork, demands: DemandVector, warnings: tuple[str, ...]):
        self.network = network
        self.demands = demands
        self.warnings = warnings


def _split(line: str) -> list[str]:
    """The line's tokens: text before any ``#``, split at single spaces, empties dropped.

    A tab or other whitespace stays part of its token.
    """
    toks = line.partition("#")[0].split(" ")
    return [t for t in toks if t] if "" in toks else toks


def _tokens(line: str) -> list[tuple[str, int]]:
    """``_split``'s tokens paired with their 1-based columns.

    Only raise sites call this: a line that parses cleanly never has its
    columns worked out.
    """
    out = []
    col = 1
    for part in line.partition("#")[0].split(" "):
        if part:
            out.append((part, col))
        col += len(part) + 1
    return out


def _error(line_no: int, raw: str, k: int, message: str) -> ParseError:
    """A ``ParseError`` at token k of the raw line."""
    return ParseError(line_no, _tokens(raw)[k][1], message)


def _int(toks: list[str], k: int, what: str, line_no: int, raw: str) -> int:
    """Token k as an integer: an optional ``-`` followed by ASCII digits.

    Python's ``int`` alone would also take ``+3``, ``1_0``, non-ASCII
    digits and surrounding whitespace such as a trailing tab.
    """
    tok = toks[k]
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise _error(line_no, raw, k, f"{what} must be an integer, got {tok!r}")


def parse_network(text: str) -> ParsedInstance:
    """Parse the instance format into a network and its demand vector.

    One pass over the lines: node ids go into a dict (ordered, with O(1)
    membership), and each piece line is appended to its edge's capacity
    and travel-time lists, which become the edge's functions once all
    lines are read.
    """
    lines = text.splitlines()
    horizon: int | None = None
    nodes: dict[str, None] = {}
    sources: set[str] = set()
    sinks: set[str] = set()
    demands: dict[str, int] = {}
    # (i, j) -> (line of the edge, capacity triples, travel-time triples)
    edge_pieces: dict[tuple[str, str], tuple[int, list, list]] = {}
    current: tuple[str, str] | None = None
    caps: list[tuple[int, int, int | float]] = []
    tts: list[tuple[int, int, int]] = []
    warnings: list[str] = []
    saw_tag = False

    for line_no, raw in enumerate(lines, start=1):
        toks = _split(raw)
        if not toks:
            continue
        kw = toks[0]
        if not saw_tag:
            if toks != FORMAT_TAG.split():
                raise _error(line_no, raw, 0, f"expected format tag {FORMAT_TAG!r}")
            saw_tag = True
            continue
        if kw == "horizon":
            if horizon is not None:
                raise _error(line_no, raw, 0, "duplicate horizon line")
            if len(toks) != 2:
                raise _error(line_no, raw, 0, "usage: horizon <T>")
            horizon = _int(toks, 1, "horizon", line_no, raw)
            if horizon < 0:
                raise _error(line_no, raw, 1, "horizon must be non-negative")
        elif kw == "node":
            if len(toks) < 3:
                raise _error(line_no, raw, 0, "usage: node <id> source <n> | sink <n> | internal")
            name, kind = toks[1], toks[2]
            if name in nodes:
                raise _error(line_no, raw, 1, f"duplicate node {name!r}")
            nodes[name] = None
            if kind == "internal":
                if len(toks) != 3:
                    raise _error(line_no, raw, 2, "internal nodes take no demand")
            elif kind in ("source", "sink"):
                if len(toks) != 4:
                    raise _error(line_no, raw, 2, f"usage: node <id> {kind} <amount>")
                amount = _int(toks, 3, "amount", line_no, raw)
                if amount < 0:
                    raise _error(line_no, raw, 3, "amount must be non-negative")
                if kind == "source":
                    sources.add(name)
                    demands[name] = -amount
                else:
                    sinks.add(name)
                    demands[name] = amount
            else:
                raise _error(line_no, raw, 2, f"unknown node kind {kind!r}")
        elif kw == "edge":
            if len(toks) != 3:
                raise _error(line_no, raw, 0, "usage: edge <from> <to>")
            i, j = toks[1], toks[2]
            for k in (1, 2):
                if toks[k] not in nodes:
                    raise _error(line_no, raw, k, f"unknown node {toks[k]!r}")
            if (i, j) in edge_pieces:
                raise _error(line_no, raw, 0, f"duplicate edge {i} -> {j}")
            current = (i, j)
            caps, tts = [], []
            edge_pieces[current] = (line_no, caps, tts)
        elif kw == "piece":
            if current is None:
                raise _error(line_no, raw, 0, "piece line before any edge line")
            if len(toks) != 7 or toks[3] != "cap" or toks[5] != "tt":
                raise _error(line_no, raw, 0, "usage: piece <t0> <t1> cap <u|inf> tt <tau>")
            t0 = _int(toks, 1, "piece start", line_no, raw)
            t1 = _int(toks, 2, "piece end", line_no, raw)
            cap: int | float
            if toks[4] == "inf":
                cap = INF
            else:
                cap = _int(toks, 4, "capacity", line_no, raw)
                if cap < 0:
                    raise _error(line_no, raw, 4, "capacity must be non-negative")
            tau = _int(toks, 6, "travel time", line_no, raw)
            if tau < 0:
                raise _error(line_no, raw, 6, "travel time must be non-negative")
            if tau == 0:
                warnings.append(
                    f"line {line_no}: zero travel time on {current[0]} -> {current[1]} "
                    f"(instantaneous traversal)"
                )
            caps.append((t0, t1, cap))
            tts.append((t0, t1, tau))
        else:
            raise _error(line_no, raw, 0, f"unknown keyword {kw!r}")

    if not saw_tag:
        raise ParseError(1, 1, f"empty input; expected format tag {FORMAT_TAG!r}")
    if horizon is None:
        raise ParseError(len(lines) + 1, 1, "missing horizon line")

    edges: dict[tuple[str, str], EdgeFn] = {}
    for (i, j), (line_no, caps, tts) in edge_pieces.items():
        if not caps:
            raise ParseError(line_no, 1, f"edge {i} -> {j} has no pieces")
        try:
            cap_fn = PiecewiseConstFn(tuple(caps))
            tt_fn = PiecewiseConstFn(tuple(tts))
        except ModelError as exc:
            raise ParseError(line_no, 1, f"edge {i} -> {j}: {exc}") from None
        if cap_fn.horizon != horizon:
            raise ParseError(
                line_no, 1, f"edge {i} -> {j} pieces end at {cap_fn.horizon}, not {horizon}"
            )
        edges[(i, j)] = EdgeFn(cap_fn, tt_fn)

    try:
        net = TemporalNetwork(tuple(nodes), edges, frozenset(sources), frozenset(sinks), horizon)
    except ModelError as exc:
        raise ParseError(len(lines) + 1, 1, str(exc)) from None
    balance = sum(demands.values())
    if balance != 0:
        # Not an error: max-flow mode ignores the demand magnitudes.
        warnings.append(f"demands sum to {balance}, not 0 (only max-flow mode accepts this)")
    return ParsedInstance(net, DemandVector(demands), tuple(warnings))


def _check_id(name: str) -> None:
    """Raise ``ModelError`` unless ``_split`` reads ``name`` back as one token (tabs may stay)."""
    if not name or " " in name or "#" in name or name.splitlines() != [name]:
        raise ModelError(
            f"node id {name!r} cannot be written: it is empty or holds a space, '#' or line break"
        )


def serialize_network(net: TemporalNetwork, v: DemandVector) -> str:
    lines = [FORMAT_TAG, f"horizon {net.horizon}"]
    for n in net.nodes:
        _check_id(n)
        if n in net.sources:
            lines.append(f"node {n} source {-v.get(n)}")
        elif n in net.sinks:
            lines.append(f"node {n} sink {v.get(n)}")
        else:
            lines.append(f"node {n} internal")
    for (i, j), fn in net.edges.items():
        lines.append(f"edge {i} {j}")
        caps, tts = fn.capacity, fn.travel_time
        points = sorted(set(caps.breakpoints()) | set(tts.breakpoints()))
        for k, start in enumerate(points):
            end = points[k + 1] - 1 if k + 1 < len(points) else net.horizon
            u = caps(start)
            cap = "inf" if u == INF else str(u)
            lines.append(f"piece {start} {end} cap {cap} tt {tts(start)}")
    return "\n".join(lines) + "\n"


def serialize_flow(f: FlowOverTime) -> str:
    """``flow`` lines for the positive amounts, sorted; zero amounts are omitted.

    A negative amount, or a written endpoint that the format cannot carry,
    raises ``ModelError``: no text would read back as the flow given.
    """
    lines = []
    for ((i, j), t), amount in sorted(f.flows.items()):
        if amount < 0:
            raise ModelError(f"flow {i} {j} {t} has negative amount {amount}")
        if amount:
            _check_id(i)
            _check_id(j)
            lines.append(f"flow {i} {j} {t} {amount}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_flow(text: str) -> FlowOverTime:
    flows: dict[tuple[tuple[str, str], int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _split(raw)
        if not toks:
            continue
        if toks[0] != "flow" or len(toks) != 5:
            raise _error(line_no, raw, 0, "usage: flow <from> <to> <t> <amount>")
        t = _int(toks, 3, "departure time", line_no, raw)
        amount = _int(toks, 4, "amount", line_no, raw)
        if amount < 0:
            raise _error(line_no, raw, 4, "amount must be non-negative")
        key = ((toks[1], toks[2]), t)
        flows[key] = flows.get(key, 0) + amount
    return FlowOverTime(flows)


class InstanceSpec(Value):
    """Knobs for the random instance generator.

    The generated graph is a layered acyclic network: the first nodes are
    sources, the last are sinks, and edges only run forward in the node
    order.  ``demand_mode`` is ``"feasible"`` (demands read off a sampled
    maximum flow of the full expansion, so the instance is feasible by
    construction), ``"random"`` (balanced but arbitrary), or ``"zero"``.
    """

    __slots__ = (
        "n_nodes", "n_sources", "n_sinks", "n_edges", "horizon", "max_capacity",
        "max_travel_time", "max_pieces", "demand_mode",
    )

    def __init__(
        self,
        n_nodes: int = 6,
        n_sources: int = 1,
        n_sinks: int = 1,
        n_edges: int = 8,
        horizon: int = 8,
        max_capacity: int = 4,
        max_travel_time: int = 3,
        max_pieces: int = 3,
        demand_mode: str = "feasible",
    ):
        self.n_nodes = n_nodes
        self.n_sources = n_sources
        self.n_sinks = n_sinks
        self.n_edges = n_edges
        self.horizon = horizon
        self.max_capacity = max_capacity
        self.max_travel_time = max_travel_time
        self.max_pieces = max_pieces
        self.demand_mode = demand_mode
        least = {"n_sources": 1, "n_sinks": 1, "n_edges": 0, "horizon": 0, "max_capacity": 0,
                 "max_travel_time": 1, "max_pieces": 1}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ModelError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if n_sources + n_sinks > n_nodes:
            raise ModelError("more terminals than nodes")
        if demand_mode not in ("feasible", "random", "zero"):
            raise ModelError(f"unknown demand mode {demand_mode!r}")


def _random_piecewise(rng: random.Random, spec: InstanceSpec) -> EdgeFn:
    T = spec.horizon
    k = rng.randint(1, min(spec.max_pieces, T + 1))
    cuts = sorted(rng.sample(range(1, T + 1), k - 1)) if k > 1 else []
    bounds = [0, *cuts, T + 1]
    caps, tts = [], []
    for a, b in zip(bounds, bounds[1:]):
        caps.append((a, b - 1, rng.randint(0, spec.max_capacity)))
        tts.append((a, b - 1, rng.randint(1, spec.max_travel_time)))
    return EdgeFn(PiecewiseConstFn(tuple(caps)), PiecewiseConstFn(tuple(tts)))


def generate_instance(spec: InstanceSpec, seed: int) -> ParsedInstance:
    """A reproducible random instance; same spec and seed, same instance."""
    rng = random.Random(seed)
    names = [f"n{k}" for k in range(spec.n_nodes)]
    sources = frozenset(names[: spec.n_sources])
    sinks = frozenset(names[-spec.n_sinks :])

    candidates = [
        (names[a], names[b])
        for a in range(spec.n_nodes)
        for b in range(a + 1, spec.n_nodes)
        if names[a] not in sinks and names[b] not in sources
    ]
    rng.shuffle(candidates)
    chosen = candidates[: spec.n_edges]
    edges = {key: _random_piecewise(rng, spec) for key in sorted(chosen)}
    net = TemporalNetwork(tuple(names), edges, sources, sinks, spec.horizon)

    if spec.demand_mode == "zero":
        v = DemandVector({t: 0 for t in sorted(net.terminals)})
    elif spec.demand_mode == "feasible":
        v = _feasible_demands(net, rng)
    else:
        v = _random_demands(net, rng, spec)
    return ParsedInstance(net, v, ())


def _feasible_demands(net: TemporalNetwork, rng: random.Random) -> DemandVector:
    """Demands read off a maximum flow of the full expansion.

    Super-terminal capacities are randomized (not infinite) so different
    seeds spread the demand across terminals differently.
    """
    caps = {t: rng.randint(0, 3 * net.horizon + 3) for t in sorted(net.sources) + sorted(net.sinks)}
    graph = build_ten(SuperTerminals(net, caps))
    _, flow = max_flow(graph)
    values = {t: 0 for t in sorted(net.terminals)}
    for ((i, j), _), amount in graph.departures(flow.arc_flows).items():
        if i == S_STAR:
            values[j] -= amount
        elif j == D_STAR:
            values[i] += amount
    return DemandVector(values)


def _random_demands(
    net: TemporalNetwork, rng: random.Random, spec: InstanceSpec
) -> DemandVector:
    supply = rng.randint(0, spec.max_capacity * (spec.horizon + 1))
    srcs, snks = sorted(net.sources), sorted(net.sinks)
    values = {t: 0 for t in srcs + snks}
    for _ in range(supply):
        values[rng.choice(srcs)] -= 1
        values[rng.choice(snks)] += 1
    return DemandVector(values)
