"""Gadget reduction to a static network, super terminals, and the canonical form.

Each one-shot edge x -> y with window [alpha, beta], capacity u and travel
time tau is replaced by a static eight-node gadget.  The first stage turns
the window into a path: a surrogate source that must start feeding at
alpha, the edge's travel time, and a surrogate sink whose collection node
sits T - beta away.  The second stage re-gadgets the collection edge so
that every surrogate-source-to-surrogate-sink path has length alpha or
T - beta.

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

from dataclasses import dataclass

from .model import (
    INF,
    DemandVector,
    EdgeFn,
    ModelError,
    OneShotNetwork,
    PiecewiseConstFn,
    TemporalNetwork,
    check_width,
)

S_STAR = "s*"
D_STAR = "d*"


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

    A finite capacity u makes a second-stage demand u * (T + 1), which must
    fit the machine integer range, and no node may already carry a gadget
    node's name.  Gadget names contain ':' and determine their edge when
    no node id does, so the names are compared only when one does.
    """
    T = net.horizon
    for (x, y), e in net.edges.items():
        if e.capacity != INF:
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


@dataclass(frozen=True)
class CanonicalTemporalNetwork:
    """Single super-source/super-sink network per the canonical shape.

    Inner edges are static; the s*-edges are live only at time 0 and the
    d*-edges only at time T, all with travel time 0.
    """

    net: TemporalNetwork
    s_star: str
    d_star: str
    ps_plus: frozenset[str]
    ps_minus: frozenset[str]
    pps_minus: frozenset[str]

    @property
    def horizon(self) -> int:
        return self.net.horizon


def one_shot_edge(active_t: int, cap, zero: PiecewiseConstFn) -> EdgeFn:
    """A zero-travel-time edge with capacity ``cap`` at ``active_t`` only.

    ``zero`` is the constant-zero function on [0, T], the edge's travel time.
    """
    T = zero.horizon
    pieces = [(active_t, active_t, cap)]
    if active_t > 0:
        pieces.insert(0, (0, active_t - 1, 0))
    if active_t < T:
        pieces.append((active_t + 1, T, 0))
    return EdgeFn(PiecewiseConstFn(tuple(pieces)), zero)


def with_super_terminals(net: TemporalNetwork, caps: dict[str, int]) -> TemporalNetwork:
    """Add s* and d* with one-shot edges at times 0 and T respectively.

    The s*-edge to a source s has capacity ``caps[s]`` at time 0 only; the
    d*-edge from a sink d has capacity ``caps[d]`` at time T only.  INF is
    allowed.  Every terminal needs an entry.  The super edges share one
    zero travel-time function, and edges with equal times and capacities
    are one object (EdgeFn is immutable).
    """
    T = net.horizon
    if S_STAR in net.nodes or D_STAR in net.nodes:
        raise ModelError(f"node ids {S_STAR!r}/{D_STAR!r} are reserved")

    edges = dict(net.edges)
    zero = PiecewiseConstFn.constant(0, T)
    built: dict[tuple, EdgeFn] = {}

    def super_edge(t, cap) -> EdgeFn:
        if (t, cap) not in built:
            built[t, cap] = one_shot_edge(t, cap, zero)
        return built[t, cap]

    for s in sorted(net.sources):
        edges[(S_STAR, s)] = super_edge(0, caps[s])
    for d in sorted(net.sinks):
        edges[(d, D_STAR)] = super_edge(T, caps[d])
    return TemporalNetwork(
        net.nodes + (S_STAR, D_STAR),
        edges,
        frozenset({S_STAR}),
        frozenset({D_STAR}),
        T,
    )


def attach_super_terminals(net: TemporalNetwork, v: DemandVector) -> TemporalNetwork:
    """Super terminals that supply -v(s) to each source and drain v(d) from each sink.

    Demands must be given for terminals only, with their signs.
    """
    v.check_against(net)
    return with_super_terminals(net, {t: abs(v.get(t)) for t in net.terminals})


def set_super_terminals(net: TemporalNetwork, a: frozenset[str]) -> TemporalNetwork:
    """Super terminals whose maximum flow over time is o_T(A).

    The sources in the terminal set A and the sinks outside it get
    infinite super edges, every other terminal a closed one, so the value
    is what A's sources can deliver to the other sinks by the horizon.
    The maximum flow over time from s to d is o_T({s}).
    """
    extra = a - net.terminals
    if extra:
        raise ModelError(f"not terminals: {sorted(extra)}")
    return with_super_terminals(
        net, {t: INF if (t in a) == (t in net.sources) else 0 for t in net.terminals}
    )


def classify_roles(
    net: TemporalNetwork, s_star: str = S_STAR, d_star: str = D_STAR
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
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
        if i == s_star:
            others = [e for e in in_edges[j] if e[0] != s_star]
            if others:
                raise StructuralError(f"pseudosource {j} has extra in-edge {others[0]}")
            ps_plus.add(j)
        if j == d_star:
            others = [e for e in out_edges[i] if e[1] != d_star]
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
        if i in ps_plus or i in ps_minus or i in (s_star, d_star):
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
    full = attach_super_terminals(net, v)
    ps_plus, ps_minus, pps_minus = classify_roles(full)
    return CanonicalTemporalNetwork(full, S_STAR, D_STAR, ps_plus, ps_minus, pps_minus)
