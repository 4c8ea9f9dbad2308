"""Feasibility via condensed expansion, with violated-set certificates.

The verdict comes from one steady-state max flow on the condensed
expansion of the original network with super terminals attached: the
instance is feasible iff the flow saturates every super-source edge.  The
breakpoint sets are the gadget-reduced canonical network's, read straight
off the network's live windows.  When the flow does not saturate, the terminals
whose first (sources) or last (sinks) interval lies on the source side
of the minimum cut that max flow returns (the vertices its last BFS
reached in the residual graph) form a violated set: the flow the sources
in the set can deliver to sinks outside it within the horizon falls
short of the set's net demand.  That flow, o_T, is read off the same
cut, so a verdict builds one graph and runs one max flow.  For checking,
``capacity_oT`` recomputes it by a second one on
``set_super_terminals(net, A)``, whose super edges are open at A's
sources and the sinks outside A, and ``verify_violated`` does so over
sets derived on the gadget form itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import INF, DemandVector, TemporalNetwork, to_one_shot
from .reductions import (
    D_STAR,
    S_STAR,
    attach_super_terminals,
    canonical_reduction,
    hoppe_tardos_star,
    set_super_terminals,
)
from .breakpoints import BreakpointSet, canonical_breakpoints, cten_breakpoints
from .expansion import build_cten, build_ten, ExpandedGraph
from .maxflow import max_flow

# The verdict reads its cut off max flow; this name stays for the
# benchmark's span probe, which looks it up here.
from .maxflow import residual_reachable  # noqa: F401


@dataclass(frozen=True)
class FeasOutcome:
    """Either a saturating condensed-expansion flow or a violated set."""

    feasible: bool
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
    """Decide feasibility of the demands ``v`` on the temporal network ``net``.

    The Gamma* sets of the gadget-reduced canonical form of ``net``'s
    one-shot split, read off ``net``'s live windows for its own nodes (s*
    and d* are anchors, so they get {0, T}), give the condensed expansion
    of ``net`` with super terminals; the verdict and, on an infeasible
    instance, the certificate come from its max flow.  Each edge's pieces
    are merged once, in ``attach_super_terminals``, and both the window
    reader and the expansion read them.

    Why that expansion is exact, though the structure theorem speaks of
    the canonical network only:
    1. Holdover arcs make each node's source side in a cut of the full
       expansion an up-set [phi(i), T].  The condensed expansion merges
       each interval's steps, so its minimum cut is the least cut of the
       full expansion with every phi(i) an interval start or T + 1; it is
       exact iff some minimum cut has every phi(i) in Gamma*(i).
    2. The one-shot split and the gadgets preserve cuts on the original
       nodes: with their phi fixed, the least canonical cut over the
       inserted nodes' times is the original cut plus a constant.  A relay
       node takes its head's time.  A gadget's forced u-per-step streams
       make the least cost of its arcs and surrogate super edges a
       constant plus u per departure step in [alpha, beta] at or after
       phi(x) that arrives before phi(y): the cost of edge xy in the
       original cut.  So every canonical minimum cut restricted to the
       original nodes is a minimum cut of the original expansion.
    3. The structure theorem gives a canonical minimum cut with every
       phi(i) in Gamma*(i); by 2 its restriction to the original nodes,
       with s* at 0 and d* at T + 1, is the minimum cut 1 asks for.
    4. ``cten_breakpoints`` enumerates exactly the canonical pin paths
       from original nodes.  It reads each edge's live windows off its
       merged pieces by the split's rules, zero pieces dropped and each
       window clipped to b <= T - tau, and puts the second and later
       windows through relay nodes keyed by tuples, so a relay never
       shares a name with a node.  The gadget of one-shot edge xy joins
       x and y only through its t- and t+, and its other inner nodes t2-
       and t2+ lead only to its anchors s+, s-, s2+ and s2-.  So a simple path crosses
       each gadget at most once, x-t--t+-y or back, adding +-tau; from
       either side it can end in the gadget's four anchor exits, offset
       by {+-alpha, 0, 0, +-(T - beta)} (plus +-tau from the y side); and
       the gadget it arrived by is used up, its t+ and t- being on the
       path.  A gadget whose far endpoint is on the path still offers
       its exits.  Original nodes are never pseudo-pseudosinks, so their
       Gamma* is their Gamma.  No capacity enters a sum, so INF
       capacities need no finite stand-in here.
    """
    v.check_balanced()
    T = net.horizon
    full = attach_super_terminals(net, v)
    bps = cten_breakpoints(full, full.nodes)
    graph = build_cten(full, bps)
    value, flow = max_flow(graph)
    if value >= v.required():
        return FeasOutcome(True, bps, graph, value)
    side = flow.side
    # A holds the sources whose first interval and the sinks whose last
    # interval is on the cut's source side.
    a = frozenset(
        i
        for i in net.terminals
        if graph.vertex_at(i, 0 if i in net.sources else T) in side
    )
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
    return FeasOutcome(False, bps, graph, value, a, o_t, -v.total(a))


def capacity_oT(
    net: TemporalNetwork, bps: dict[str, tuple[int, ...]], a: frozenset[str]
) -> int:
    """Maximum flow A's sources can deliver to sinks outside A by the horizon.

    ``net`` is the original network, without super terminals, and ``bps``
    the breakpoints of its unrestricted verdict.  Solves the condensed
    expansion of ``set_super_terminals(net, a)`` over ``bps``: the
    restriction changes super-edge capacities only, and the sets depend on
    the topology, the anchors and the inner edges alone, so they stay
    exact.  ``feas`` reads the same value off its cut.
    """
    value, _ = max_flow(build_cten(set_super_terminals(net, a), bps))
    return value


def capacity_oT_ten(net: TemporalNetwork, a: frozenset[str]) -> int:
    """Reference for ``capacity_oT``: the full expansion of any network.

    Solves the full expansion of the (possibly temporal) network with
    super terminals restricted to A, within the size budget.
    """
    value, _ = max_flow(build_ten(set_super_terminals(net, a)))
    return value


def gadget_breakpoints(net: TemporalNetwork, v: DemandVector) -> dict[str, BreakpointSet]:
    """The original nodes' sets (s* and d* included), enumerated on the gadget form.

    An independent derivation of ``cten_breakpoints``: the one-shot split is
    gadget-reduced and the sets are read off its canonical form's pin
    graph.  Each INF capacity becomes one more than the largest finite
    one; the sets read no capacity, and the gadget demands stay finite.
    """
    one_shot, _ = to_one_shot(net)
    stand_in = net.max_finite_capacity() + 1
    finite = replace(
        one_shot,
        edges={
            edge: replace(e, capacity=stand_in) if e.capacity == INF else e
            for edge, e in one_shot.edges.items()
        },
    )
    canon = canonical_reduction(*hoppe_tardos_star(finite, v))
    return canonical_breakpoints(canon, net.nodes + (S_STAR, D_STAR))


def verify_violated(net: TemporalNetwork, v: DemandVector, a: frozenset[str]) -> bool:
    """True iff A certifies infeasibility: its capacity is below -v(A).

    Recomputes the original nodes' breakpoints on the gadget form, so
    independently of the verdict that reported A and of its enumerator,
    and solves the restricted condensed expansion of ``net``.
    """
    return capacity_oT(net, gadget_breakpoints(net, v), a) < -v.total(a)
