"""Text format for temporal networks, demands, flows, and verdicts.

The instance format is line-oriented:

    tn 1
    horizon <T>
    node <id> source <supply> | node <id> sink <demand> | node <id> internal
    edge <from> <to>
    piece <t0> <t1> cap <u|inf> tt <tau>

``piece`` lines belong to the most recent ``edge`` line and must tile
[0, T] exactly.  A source's ``<supply>`` is the (non-negative) amount it
emits; internally that is the demand value -supply.  Flow files hold
``flow <from> <to> <t> <amount>`` lines.  Verdicts serialize as
``FEASIBLE`` or ``INFEASIBLE violated=<ids> oT=<n> negv=<n>``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    INF,
    DemandVector,
    EdgeFn,
    FlowOverTime,
    ModelError,
    PiecewiseConstFn,
    TemporalNetwork,
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


@dataclass(frozen=True)
class ParsedInstance:
    network: TemporalNetwork
    demands: DemandVector
    warnings: tuple[str, ...]


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs, ignoring comments."""
    out = []
    col = 1
    for part in line.split("#", 1)[0].split(" "):
        if part:
            out.append((part, col))
        col += len(part) + 1
    return out


def _int(tok: str, line_no: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, col, f"{what} must be an integer, got {tok!r}") from None


def parse_network(text: str) -> ParsedInstance:
    """Parse the instance format into a network and its demand vector."""
    lines = text.splitlines()
    horizon: int | None = None
    nodes: list[str] = []
    sources: set[str] = set()
    sinks: set[str] = set()
    demands: dict[str, int] = {}
    edge_pieces: dict[tuple[str, str], list[tuple[int, int, int | float, int]]] = {}
    edge_lines: dict[tuple[str, str], int] = {}
    current: tuple[str, str] | None = None
    warnings: list[str] = []
    saw_tag = False

    for line_no, raw in enumerate(lines, start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        (kw, col0) = toks[0]
        if not saw_tag:
            if [t for t, _ in toks] != FORMAT_TAG.split():
                raise ParseError(line_no, col0, f"expected format tag {FORMAT_TAG!r}")
            saw_tag = True
            continue
        if kw == "horizon":
            if horizon is not None:
                raise ParseError(line_no, col0, "duplicate horizon line")
            if len(toks) != 2:
                raise ParseError(line_no, col0, "usage: horizon <T>")
            horizon = _int(toks[1][0], line_no, toks[1][1], "horizon")
            if horizon < 0:
                raise ParseError(line_no, toks[1][1], "horizon must be non-negative")
        elif kw == "node":
            if len(toks) < 3:
                raise ParseError(line_no, col0, "usage: node <id> source <n> | sink <n> | internal")
            name, kind = toks[1][0], toks[2][0]
            if name in nodes:
                raise ParseError(line_no, toks[1][1], f"duplicate node {name!r}")
            nodes.append(name)
            if kind == "internal":
                if len(toks) != 3:
                    raise ParseError(line_no, toks[2][1], "internal nodes take no demand")
            elif kind in ("source", "sink"):
                if len(toks) != 4:
                    raise ParseError(line_no, toks[2][1], f"usage: node <id> {kind} <amount>")
                amount = _int(toks[3][0], line_no, toks[3][1], "amount")
                if amount < 0:
                    raise ParseError(line_no, toks[3][1], "amount must be non-negative")
                if kind == "source":
                    sources.add(name)
                    demands[name] = -amount
                else:
                    sinks.add(name)
                    demands[name] = amount
            else:
                raise ParseError(line_no, toks[2][1], f"unknown node kind {kind!r}")
        elif kw == "edge":
            if len(toks) != 3:
                raise ParseError(line_no, col0, "usage: edge <from> <to>")
            i, j = toks[1][0], toks[2][0]
            for name, col in (toks[1], toks[2]):
                if name not in nodes:
                    raise ParseError(line_no, col, f"unknown node {name!r}")
            if (i, j) in edge_pieces:
                raise ParseError(line_no, col0, f"duplicate edge {i} -> {j}")
            current = (i, j)
            edge_pieces[current] = []
            edge_lines[current] = line_no
        elif kw == "piece":
            if current is None:
                raise ParseError(line_no, col0, "piece line before any edge line")
            if len(toks) != 7 or toks[3][0] != "cap" or toks[5][0] != "tt":
                raise ParseError(line_no, col0, "usage: piece <t0> <t1> cap <u|inf> tt <tau>")
            t0 = _int(toks[1][0], line_no, toks[1][1], "piece start")
            t1 = _int(toks[2][0], line_no, toks[2][1], "piece end")
            cap_tok, cap_col = toks[4]
            cap: int | float
            if cap_tok == "inf":
                cap = INF
            else:
                cap = _int(cap_tok, line_no, cap_col, "capacity")
                if cap < 0:
                    raise ParseError(line_no, cap_col, "capacity must be non-negative")
            tau = _int(toks[6][0], line_no, toks[6][1], "travel time")
            if tau < 0:
                raise ParseError(line_no, toks[6][1], "travel time must be non-negative")
            if tau == 0:
                warnings.append(
                    f"line {line_no}: zero travel time on {current[0]} -> {current[1]} "
                    f"(instantaneous traversal)"
                )
            edge_pieces[current].append((t0, t1, cap, tau))
        else:
            raise ParseError(line_no, col0, f"unknown keyword {kw!r}")

    if not saw_tag:
        raise ParseError(1, 1, f"empty input; expected format tag {FORMAT_TAG!r}")
    if horizon is None:
        raise ParseError(len(lines) + 1, 1, "missing horizon line")

    edges: dict[tuple[str, str], EdgeFn] = {}
    for key, pieces in edge_pieces.items():
        line_no = edge_lines[key]
        if not pieces:
            raise ParseError(line_no, 1, f"edge {key[0]} -> {key[1]} has no pieces")
        try:
            caps = PiecewiseConstFn(tuple((a, b, u) for a, b, u, _ in pieces))
            tts = PiecewiseConstFn(tuple((a, b, tau) for a, b, _, tau in pieces))
        except ModelError as exc:
            raise ParseError(line_no, 1, f"edge {key[0]} -> {key[1]}: {exc}") from None
        if caps.horizon != horizon:
            raise ParseError(
                line_no, 1, f"edge {key[0]} -> {key[1]} pieces end at {caps.horizon}, not {horizon}"
            )
        edges[key] = EdgeFn(caps, tts)

    try:
        net = TemporalNetwork(tuple(nodes), edges, frozenset(sources), frozenset(sinks), horizon)
    except ModelError as exc:
        raise ParseError(len(lines) + 1, 1, str(exc)) from None
    balance = sum(demands.values())
    if balance != 0:
        # Not an error: max-flow mode ignores the demand magnitudes.
        warnings.append(f"demands sum to {balance}, not 0 (only max-flow mode accepts this)")
    return ParsedInstance(net, DemandVector(demands), tuple(warnings))


def serialize_network(net: TemporalNetwork, v: DemandVector) -> str:
    lines = [FORMAT_TAG, f"horizon {net.horizon}"]
    for n in net.nodes:
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
    lines = [
        f"flow {i} {j} {t} {amount}"
        for ((i, j), t), amount in sorted(f.flows.items())
        if amount > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_flow(text: str) -> FlowOverTime:
    flows: dict[tuple[tuple[str, str], int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        if toks[0][0] != "flow" or len(toks) != 5:
            raise ParseError(line_no, toks[0][1], "usage: flow <from> <to> <t> <amount>")
        i, j = toks[1][0], toks[2][0]
        t = _int(toks[3][0], line_no, toks[3][1], "departure time")
        amount = _int(toks[4][0], line_no, toks[4][1], "amount")
        if amount < 0:
            raise ParseError(line_no, toks[4][1], "amount must be non-negative")
        key = ((i, j), t)
        flows[key] = flows.get(key, 0) + amount
    return FlowOverTime(flows)


@dataclass(frozen=True)
class InstanceSpec:
    """Knobs for the random instance generator.

    The generated graph is a layered acyclic network: the first nodes are
    sources, the last are sinks, and edges only run forward in the node
    order.  ``demand_mode`` is ``"feasible"`` (demands read off a sampled
    maximum flow of the full expansion, so the instance is feasible by
    construction), ``"random"`` (balanced but arbitrary), or ``"zero"``.
    """

    n_nodes: int = 6
    n_sources: int = 1
    n_sinks: int = 1
    n_edges: int = 8
    horizon: int = 8
    max_capacity: int = 4
    max_travel_time: int = 3
    max_pieces: int = 3
    demand_mode: str = "feasible"

    def __post_init__(self):
        least = {"n_sources": 1, "n_sinks": 1, "n_edges": 0, "horizon": 0, "max_capacity": 0,
                 "max_travel_time": 1, "max_pieces": 1}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ModelError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.n_sources + self.n_sinks > self.n_nodes:
            raise ModelError("more terminals than nodes")
        if self.demand_mode not in ("feasible", "random", "zero"):
            raise ModelError(f"unknown demand mode {self.demand_mode!r}")


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
