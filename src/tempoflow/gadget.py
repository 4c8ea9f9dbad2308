"""The gadget form: the independent derivation of the breakpoint sets.

The condensed expansion is exact by the Hoppe–Tardos gadget reduction and
a structure theorem on its canonical form.  This module builds that form
and reads the sets off it (``gadget_breakpoints``), the reference that the
window reader's Gamma* sets, ``breakpoints.gamma_breakpoints``, are
checked against; the verdict's own sets lie within them.
Its one program caller is ``tempoflow verify``; no verdict builds any of it.

The one-shot split (``to_one_shot``) gives each live window its own edge,
and each one-shot edge x -> y with window [alpha, beta], capacity u and
travel time tau is replaced by a static eight-node gadget.  The first
stage turns the window into a path: a surrogate source that must start
feeding at alpha, the edge's travel time, and a surrogate sink whose
collection node sits T - beta away.  The second stage re-gadgets the
collection edge so that every surrogate-source-to-surrogate-sink path has
length alpha or T - beta.

A crucial detail is that both second-stage junction nodes are kept.  The
second-stage source emits u * (T + 1) units through a single capacity-u
zero-length edge, which forces it to emit exactly u per time step; dually
the second-stage sink absorbs exactly u per step.  These forced full-rate
streams are what couple "x diverts a unit into the collector" to "the
surrogate source has already banked a matching unit", which is exactly the
schedule-exchange argument that makes the reduction feasibility-preserving.
Collapsing either junction away breaks the per-step rate limit and with it
the equivalence (a unit could be diverted before its replacement is
available).
"""

from __future__ import annotations

from .model import (
    INF,
    MAX_INT,
    DemandVector,
    EdgeFn,
    ModelError,
    PiecewiseConstFn,
    TemporalNetwork,
    Value,
    check_width,
    _is_cap,
)
from .reductions import D_STAR, S_STAR, attach_super_terminals
from .breakpoints import BreakpointSet, _clip, _pin_sums


class OneShotEdge(Value):
    __slots__ = ("alpha", "beta", "capacity", "travel_time")

    def __init__(self, alpha: int, beta: int, capacity: int | float, travel_time: int):
        self.alpha = alpha
        self.beta = beta
        self.capacity = capacity
        self.travel_time = travel_time


class OneShotNetwork(Value):
    """Temporal network where each edge is live on one window [alpha, beta]."""

    __slots__ = ("nodes", "edges", "sources", "sinks", "horizon")

    def __init__(
        self,
        nodes: tuple[str, ...],
        edges: dict[tuple[str, str], OneShotEdge],
        sources: frozenset[str],
        sinks: frozenset[str],
        horizon: int,
    ):
        for (i, j), e in edges.items():
            if not (0 <= e.alpha <= e.beta <= horizon):
                raise ModelError(f"edge ({i}, {j}) window [{e.alpha}, {e.beta}] invalid")
            if not _is_cap(e.capacity) or e.capacity == 0:
                raise ModelError(f"edge ({i}, {j}) capacity must be positive or INF")
            if not (isinstance(e.travel_time, int) and e.travel_time >= 0):
                raise ModelError(f"edge ({i}, {j}) travel time must be a non-negative integer")
        self.nodes = nodes
        self.edges = edges
        self.sources = sources
        self.sinks = sinks
        self.horizon = horizon


def to_one_shot(net: TemporalNetwork) -> tuple[OneShotNetwork, dict[str, tuple[str, str]]]:
    """Split every edge into one edge per live window (``live_windows``).

    The first window keeps the original endpoints; each further window
    goes through a fresh relay node (window edge into the relay, zero-length
    always-on edge out) so no parallel edges arise.  The relay on piece k
    of edge ij is ``i>j#k``, primed until no node carries its name.
    Returns the split and its relays, each mapped to its original edge.
    """
    T = net.horizon
    nodes = list(net.nodes)
    existing = set(nodes)
    edges: dict[tuple[str, str], OneShotEdge] = {}
    relays: dict[str, tuple[str, str]] = {}
    for (i, j), windows in net.windows().items():
        for n, (k, a, b, u, tau) in enumerate(windows):
            if n == 0:
                edges[(i, j)] = OneShotEdge(a, b, u, tau)
            else:
                relay = f"{i}>{j}#{k}"
                while relay in existing:
                    relay += "'"
                existing.add(relay)
                nodes.append(relay)
                relays[relay] = (i, j)
                edges[(i, relay)] = OneShotEdge(a, b, u, tau)
                edges[(relay, j)] = OneShotEdge(0, T, u, 0)
    return OneShotNetwork(tuple(nodes), edges, net.sources, net.sinks, T), relays


class StructuralError(ModelError):
    """A network violates the structural conditions of its declared shape."""


def _gadget_names(x: str, y: str) -> dict[str, str]:
    return {
        "s+": f"s+:{x}:{y}",
        "t+": f"t+:{x}:{y}",
        "t-": f"t-:{x}:{y}",
        "s-": f"s-:{x}:{y}",
        "s2+": f"s2+:{x}:{y}",
        "t2+": f"t2+:{x}:{y}",
        "t2-": f"t2-:{x}:{y}",
        "s2-": f"s2-:{x}:{y}",
    }


def check_gadget_reducible(net: OneShotNetwork):
    """Reject what the gadgets could not represent, INF capacities aside.

    A finite capacity u of edge (x, y) is rejected when its gadget demand
    u * (T + 1) exceeds the machine integer range; the message is built
    only then.  A node, or another edge's gadget, that carries a gadget
    node's name is rejected too.  Gadget names contain ':' and determine
    their edge when no node id does, so the names are compared only when
    one does.
    """
    T = net.horizon
    for (x, y), e in net.edges.items():
        if e.capacity != INF and e.capacity > MAX_INT // (T + 1):
            check_width(e.capacity * (T + 1), f"gadget demand for edge ({x}, {y})")
    if not any(":" in n for n in net.nodes):
        return
    existing = set(net.nodes)
    for (x, y) in net.edges:
        names = set(_gadget_names(x, y).values())
        clash = names & existing
        if clash:
            raise ModelError(f"node ids {sorted(clash)} are reserved for the reduction")
        existing |= names


def hoppe_tardos_star(
    net: OneShotNetwork, v: DemandVector
) -> tuple[TemporalNetwork, DemandVector]:
    """Replace each one-shot edge with its static gadget.

    Returns the static network and its demands.  The surrogate terminals of
    the gadget for edge xy receive demands -u(beta - alpha + 1) /
    +u(beta - alpha + 1) (first stage) and -u(T + 1) / +u(T + 1) (second
    stage); original terminals keep their demands, so the total stays zero.
    Gadget nodes are named ``<role>:x:y`` with role s+, t+, t-, s-, s2+,
    t2+, t2- or s2-.
    """
    T = net.horizon
    v.check_balanced()
    v.check_against(net)

    check_gadget_reducible(net)
    nodes = list(net.nodes)
    edges: dict[tuple[str, str], EdgeFn] = {}
    demands = {t: v.get(t) for t in sorted(net.sources | net.sinks)}
    sources = set(net.sources)
    sinks = set(net.sinks)
    # Gadgets repeat few (u, tau) pairs: each distinct edge is built, and
    # so validated, once per reduction and shared (EdgeFn is immutable).
    built: dict[tuple, EdgeFn] = {}

    def static(u, tau) -> EdgeFn:
        if (u, tau) not in built:
            built[u, tau] = EdgeFn(
                PiecewiseConstFn.constant(u, T), PiecewiseConstFn.constant(tau, T)
            )
        return built[u, tau]

    for (x, y), e in net.edges.items():
        if e.capacity == INF:
            raise ModelError(
                f"edge ({x}, {y}): infinite capacity cannot be gadget-reduced "
                "(the surrogate demands would be infinite)"
            )
        u, tau, alpha, beta = e.capacity, e.travel_time, e.alpha, e.beta
        names = _gadget_names(x, y)
        nodes.extend(names.values())

        edges[(names["s+"], names["t+"])] = static(u, alpha)
        edges[(names["t+"], y)] = static(u, tau)
        edges[(names["t+"], names["t-"])] = static(u, 0)
        edges[(x, names["t-"])] = static(u, 0)
        edges[(names["t-"], names["t2-"])] = static(u, 0)
        edges[(names["s2+"], names["t2+"])] = static(u, 0)
        edges[(names["t2+"], names["s-"])] = static(u, T - beta)
        edges[(names["t2+"], names["t2-"])] = static(u, 0)
        edges[(names["t2-"], names["s2-"])] = static(u, 0)

        demands[names["s+"]] = -u * (beta - alpha + 1)
        demands[names["s-"]] = u * (beta - alpha + 1)
        demands[names["s2+"]] = -u * (T + 1)
        demands[names["s2-"]] = u * (T + 1)
        sources.update((names["s+"], names["s2+"]))
        sinks.update((names["s-"], names["s2-"]))

    reduced = TemporalNetwork(
        tuple(nodes), edges, frozenset(sources), frozenset(sinks), T
    )
    return reduced, DemandVector(demands)


class CanonicalTemporalNetwork(Value):
    """Single super-source/super-sink network per the canonical shape.

    The super terminals are ``S_STAR`` and ``D_STAR``.  Inner edges are
    static; the s*-edges are live only at time 0 and the d*-edges only at
    time T, all with travel time 0.
    """

    __slots__ = ("net", "ps_plus", "ps_minus", "pps_minus")

    def __init__(
        self,
        net: TemporalNetwork,
        ps_plus: frozenset[str],
        ps_minus: frozenset[str],
        pps_minus: frozenset[str],
    ):
        self.net = net
        self.ps_plus = ps_plus
        self.ps_minus = ps_minus
        self.pps_minus = pps_minus

    @property
    def horizon(self) -> int:
        return self.net.horizon


def classify_roles(net: TemporalNetwork) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Compute pseudosources, pseudosinks, and pseudo-pseudosinks from topology.

    Structural conditions are enforced: a pseudosource has no in-edge other
    than its s*-edge, a pseudosink no out-edge other than its d*-edge, and
    the two sets are disjoint.  A pseudo-pseudosink has exactly one
    out-edge (to a pseudosink), exactly two in-edges, all incident edges
    with travel time 0 and capacity equal to the out-edge's.
    """
    in_edges: dict[str, list[tuple[str, str]]] = {n: [] for n in net.nodes}
    out_edges: dict[str, list[tuple[str, str]]] = {n: [] for n in net.nodes}
    for (i, j) in net.edges:
        out_edges[i].append((i, j))
        in_edges[j].append((i, j))

    ps_plus, ps_minus = set(), set()
    for (i, j) in net.edges:
        if i == S_STAR:
            others = [e for e in in_edges[j] if e[0] != S_STAR]
            if others:
                raise StructuralError(f"pseudosource {j} has extra in-edge {others[0]}")
            ps_plus.add(j)
        if j == D_STAR:
            others = [e for e in out_edges[i] if e[1] != D_STAR]
            if others:
                raise StructuralError(f"pseudosink {i} has extra out-edge {others[0]}")
            ps_minus.add(i)
    overlap = ps_plus & ps_minus
    if overlap:
        raise StructuralError(
            f"node {sorted(overlap)[0]} is both pseudosource and pseudosink"
        )

    def const(fn: PiecewiseConstFn):
        return fn.pieces[0][2] if fn.is_constant() else None

    pps_minus = set()
    for i in net.nodes:
        if i in ps_plus or i in ps_minus or i in (S_STAR, D_STAR):
            continue
        if len(out_edges[i]) != 1 or len(in_edges[i]) != 2:
            continue
        out = out_edges[i][0]
        if out[1] not in ps_minus:
            continue
        out_cap = const(net.edges[out].capacity)
        incident = in_edges[i] + [out]
        if out_cap is None:
            continue
        if all(
            const(net.edges[e].capacity) == out_cap
            and const(net.edges[e].travel_time) == 0
            for e in incident
        ):
            pps_minus.add(i)
    return frozenset(ps_plus), frozenset(ps_minus), frozenset(pps_minus)


def canonical_reduction(net: TemporalNetwork, v: DemandVector) -> CanonicalTemporalNetwork:
    """Attach super terminals to a static network and classify node roles."""
    if not net.is_static():
        raise ModelError("canonical reduction requires a static inner network")
    v.check_balanced()
    full = attach_super_terminals(net, v).materialize()
    ps_plus, ps_minus, pps_minus = classify_roles(full)
    return CanonicalTemporalNetwork(full, ps_plus, ps_minus, pps_minus)


class _PinGraph:
    """What pin-path enumeration reads off a canonical network, built once."""

    def __init__(self, canon: CanonicalTemporalNetwork):
        self.horizon = canon.horizon
        self.pps = canon.pps_minus
        self.gammas: dict[str, BreakpointSet] = {}
        self.folded: dict = {}
        # Nodes that settle on a boundary value in some minimum cut.
        self.anchors = frozenset({S_STAR, D_STAR}) | canon.ps_plus | canon.ps_minus
        tau = {e: fn.travel_time.pieces[0][2] for e, fn in canon.net.edges.items()}
        self.into: dict[str, list[str]] = {n: [] for n in canon.net.nodes}
        # Undirected: (neighbor, signed travel times of the edge and of its
        # reverse edge, when that exists) once per directed edge.
        self.adjacent: dict[str, list[tuple[str, set[int]]]] = {n: [] for n in canon.net.nodes}
        for (a, b), t in tau.items():
            self.into[b].append(a)
            w = {t, -t, tau.get((b, a), t), -tau.get((b, a), t)}
            self.adjacent[a].append((b, w))
            self.adjacent[b].append((a, w))
        self.tails = {a for (a, _) in tau}

    def fold(self, node: str, arrived_by: None) -> tuple[set[int], int, list]:
        """A visit to node: its anchor neighbors' weights, their count, and its other steps.

        ``arrived_by`` is always None: a step back along it is onto the path.
        """
        offsets: set[int] = set()
        paths = 0
        steps = []
        for nxt, weights in self.adjacent[node]:
            if nxt in self.anchors:
                paths += 1
                offsets.update(weights)
            else:
                steps.append((None, nxt, weights))
        self.folded[node, arrived_by] = entry = (offsets, paths, steps)
        return entry

    def gamma(self, i: str) -> BreakpointSet:
        """Gamma(i) within [0, T], enumerated at most once per node."""
        if i not in self.gammas:
            # Anchors and nodes lacking an in- or an out-edge have {0, T + 1}.
            trivial = i in self.anchors or not self.into[i] or i not in self.tails
            sums = set() if trivial else _pin_sums(i, self.folded, self.fold)
            self.gammas[i] = _clip(sums, self.horizon)
        return self.gammas[i]

    def gamma_star(self, i: str) -> BreakpointSet:
        """Gamma*(i) within [0, T]: Gamma(i), or a pseudo-pseudosink's in-neighbors' sets combined.

        The settling stage moves a pseudo-pseudosink onto one of its two
        in-neighbors' cut times or the boundary, so the union of their
        sets covers every value it can end on.
        """
        if i not in self.pps:
            return self.gamma(i)
        preds = self.into[i]
        if len(preds) != 2:
            raise StructuralError(f"pseudo-pseudosink {i} has {len(preds)} in-neighbors")
        return tuple(sorted(set(self.gamma(preds[0])) | set(self.gamma(preds[1]))))


def canonical_breakpoints(
    canon: CanonicalTemporalNetwork, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """Sets A_i = Gamma*(i) within [0, T] for ``nodes``, all read off one pin graph.

    Each holds 0, as Gamma*(i) does.  Every node in ``nodes`` must be a
    node of ``canon``.
    """
    pins = _PinGraph(canon)
    return {i: pins.gamma_star(i) for i in nodes}


def gadget_breakpoints(net: TemporalNetwork) -> dict[str, BreakpointSet]:
    """The original nodes' sets (s* and d* included), enumerated on the gadget form.

    An independent derivation of ``gamma_breakpoints``: the one-shot split is
    gadget-reduced and the sets are read off its canonical form's pin
    graph.  The sets read travel times, topology and roles, never a
    capacity or a demand: the one role test that compares capacities, the
    pseudo-pseudosink test, compares edges of one gadget, which all carry
    its edge's u, and no super edge is incident to a pseudo-pseudosink.
    So every one-shot edge enters the gadget form with capacity 1 and
    every terminal with demand 0, and an INF or wide capacity needs no
    stand-in.  A network whose node ids clash with the gadget names is
    rejected (``check_gadget_reducible``), though its verdict is exact.
    """
    one_shot, _ = to_one_shot(net)
    unit = OneShotNetwork(
        one_shot.nodes,
        {e: OneShotEdge(w.alpha, w.beta, 1, w.travel_time) for e, w in one_shot.edges.items()},
        one_shot.sources,
        one_shot.sinks,
        one_shot.horizon,
    )
    canon = canonical_reduction(*hoppe_tardos_star(unit, DemandVector({})))
    return canonical_breakpoints(canon, net.nodes + (S_STAR, D_STAR))
