"""Feasibility via condensed expansion, with violated-set certificates.

The verdict comes from one steady-state max flow on the condensed
expansion of the canonical form: the instance is feasible iff the flow
saturates every super-source edge.  When it does not, the terminals whose
first (sources) or last (sinks) interval is reachable in the residual
graph form a violated set: the flow the sources in the set can deliver to
sinks outside it within the horizon falls short of the set's net demand.
That flow, o_T, is read off the verdict's own cut, so a verdict costs one
max flow; ``capacity_oT`` recomputes it by a second one, for checking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import INF, DemandVector, ModelError, TemporalNetwork
from .reductions import (
    D_STAR,
    S_STAR,
    CanonicalTemporalNetwork,
    attach_super_terminals,
    canonical_reduction,
    one_shot_edge,
)
from .breakpoints import cten_breakpoints
from .expansion import build_cten, build_ten, intervals_of, ExpandedGraph
from .maxflow import max_flow, residual_reachable


@dataclass(frozen=True)
class FeasOutcome:
    """Either a saturating condensed-expansion flow or a violated set."""

    feasible: bool
    canonical: CanonicalTemporalNetwork
    breakpoints: dict[str, tuple[int, ...]]
    graph: ExpandedGraph
    flow_value: int
    violated: frozenset[str] | None = None
    o_T: int | None = None
    neg_v: int | None = None

    def serialize(self) -> str:
        if self.feasible:
            return "FEASIBLE"
        ids = ",".join(sorted(self.violated))
        return f"INFEASIBLE violated={ids} oT={self.o_T} negv={self.neg_v}"


def feas(net: TemporalNetwork, v: DemandVector) -> FeasOutcome:
    """Decide feasibility of a gadget-reduced static transshipment instance.

    ``net`` and ``v`` are the output of ``hoppe_tardos_star``: the
    breakpoint sets are exact only on its canonical form.  The canonical
    network and its breakpoints are computed once and serve both the
    verdict and, on an infeasible instance, the certificate.
    """
    T = net.horizon
    canon = canonical_reduction(net, v)
    bps = cten_breakpoints(canon)
    graph = build_cten(canon.net, bps)
    value, flow = max_flow(graph)
    required = sum(d for d in v.values.values() if d > 0)
    if value >= required:
        return FeasOutcome(True, canon, bps, graph, value)
    side = residual_reachable(graph, flow)
    violated = set()
    for s in sorted(net.sources):
        first = intervals_of(bps[s], T).interval_of(0)
        if graph.vertex(s, first) in side:
            violated.add(s)
    for d in sorted(net.sinks):
        last = intervals_of(bps[d], T).interval_of(T)
        if graph.vertex(d, last) in side:
            violated.add(d)
    a = frozenset(violated)
    # o_T(A) = |f| - v(A cap sinks) - (-v)(sources \ A), read off the cut `side`:
    # 1. `side` crosses exactly the saturated super edges of the sources outside
    #    A and of the sinks in A; every other super edge has both ends on one
    #    side.  Its remaining arcs weigh C = |f| - v(A cap sinks) - (-v)(sources \ A).
    # 2. Restricting the network to A zeroes those super edges and makes the
    #    others infinite, so `side` cuts the restricted network with weight C.
    #    A finite cut S there holds the first vertex of every source in A and no
    #    last vertex of a sink outside A, so in the unrestricted network, where
    #    S weighs at least |f|, its super edges weigh at most (-v)(sources \ A)
    #    + v(A cap sinks) and its other arcs at least C.  The other arcs are all
    #    S weighs after restriction, so C is the minimum cut there: o_T(A).
    o_t = value - v.total(a & net.sinks) + v.total(net.sources - a)
    return FeasOutcome(False, canon, bps, graph, value, a, o_t, -v.total(a))


def _restrict_super_edges(net: TemporalNetwork, a: frozenset[str]) -> TemporalNetwork:
    """Open the super edges of the terminals in A and close the rest.

    ``net`` carries super terminals s*/d*.  Super-source edges to sources in
    A become infinite and to sources outside A zero; super-sink edges from
    sinks in A become zero and from sinks outside A infinite.  The maximum
    flow over time of the result is the capacity of A: what A's sources
    can push to the other sinks.
    """
    terminals = {j for (i, j) in net.edges if i == S_STAR} | {
        i for (i, j) in net.edges if j == D_STAR
    }
    extra = a - terminals
    if extra:
        raise ModelError(f"not terminals: {sorted(extra)}")
    T = net.horizon
    edges = dict(net.edges)
    for (i, j) in net.edges:
        if i == S_STAR:
            edges[(i, j)] = one_shot_edge(0, INF if j in a else 0, T)
        elif j == D_STAR:
            edges[(i, j)] = one_shot_edge(T, 0 if i in a else INF, T)
    return TemporalNetwork(net.nodes, edges, net.sources, net.sinks, T)


def restrict_for_set(
    canon: CanonicalTemporalNetwork, a: frozenset[str]
) -> CanonicalTemporalNetwork:
    """The canonical network with the super edges restricted to A."""
    return replace(canon, net=_restrict_super_edges(canon.net, a))


def capacity_oT(
    canon: CanonicalTemporalNetwork, bps: dict[str, tuple[int, ...]], a: frozenset[str]
) -> int:
    """Maximum flow A's sources can deliver to sinks outside A by the horizon.

    Restricts the canonical form and solves its condensed expansion over
    the unrestricted network's breakpoints ``bps`` (restriction only
    removes paths, so they stay valid).  ``feas`` reads it off its cut.
    """
    value, _ = max_flow(build_cten(restrict_for_set(canon, a).net, bps))
    return value


def capacity_oT_ten(net: TemporalNetwork, v: DemandVector, a: frozenset[str]) -> int:
    """Reference for ``capacity_oT``: the full expansion of any network.

    Attaches super terminals to the (possibly temporal) network, restricts
    them to A and solves the full expansion within the size budget.
    """
    restricted = _restrict_super_edges(attach_super_terminals(net, v), a)
    value, _ = max_flow(build_ten(restricted))
    return value


def verify_violated(net: TemporalNetwork, v: DemandVector, a: frozenset[str]) -> bool:
    """True iff A certifies infeasibility: its capacity is below -v(A).

    Recomputes the canonical form and breakpoints of the gadget-reduced
    instance from scratch, independently of the verdict that reported A.
    """
    canon = canonical_reduction(net, v)
    return capacity_oT(canon, cten_breakpoints(canon), a) < -v.total(a)
