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
sources and the sinks outside A; over the sets that
``gadget.gadget_breakpoints`` derives on the gadget form itself, it
checks a certificate independently of the verdict.
"""

from __future__ import annotations

from .model import DemandVector, TemporalNetwork, Value
from .reductions import attach_super_terminals, set_super_terminals
from .breakpoints import cten_breakpoints
from .expansion import build_cten, build_ten, ExpandedGraph
from .maxflow import max_flow

# No verdict calls these: the benchmark's span probes
# feasibility.canonical_reduction and .residual_reachable look them up here.
from .gadget import canonical_reduction  # noqa: F401
from .maxflow import residual_reachable  # noqa: F401


class FeasOutcome(Value):
    """Either a saturating condensed-expansion flow or a violated set."""

    __slots__ = ("feasible", "breakpoints", "graph", "flow_value", "violated", "o_T", "neg_v")

    def __init__(
        self,
        feasible: bool,
        breakpoints: dict[str, tuple[int, ...]],
        graph: ExpandedGraph,
        flow_value: int,
        violated: frozenset[str] | None = None,
        o_T: int | None = None,
        neg_v: int | None = None,
    ):
        self.feasible = feasible
        self.breakpoints = breakpoints
        self.graph = graph
        self.flow_value = flow_value
        self.violated = violated
        self.o_T = o_T
        self.neg_v = neg_v

    def serialize(self) -> str:
        if self.feasible:
            return "FEASIBLE"
        ids = ",".join(sorted(self.violated))
        return f"INFEASIBLE violated={ids} oT={self.o_T} negv={self.neg_v}"


def feas(net: TemporalNetwork, v: DemandVector) -> FeasOutcome:
    """Decide feasibility of the demands ``v`` on the temporal network ``net``.

    The Gamma* sets of the gadget-reduced canonical form of ``net``'s
    one-shot split, read off ``net``'s live windows for its own nodes and
    clipped to [0, T] (s* and d* are anchors, so they get {0}), give the
    condensed expansion of ``net`` with super terminals; the verdict and,
    on an infeasible instance, the certificate come from its max flow.
    Each edge's live windows are read once, in ``attach_super_terminals``,
    and both the window reader and the expansion read them.

    Why that expansion is exact, though the structure theorem speaks of
    the canonical network only:
    1. Holdover arcs make each node's source side in a cut of the full
       expansion an up-set [phi(i), T].  The condensed expansion merges
       each interval's steps, so its minimum cut is the least cut of the
       full expansion with every phi(i) an interval start or T + 1; it is
       exact iff some minimum cut has every phi(i) allowed so.  Node i's
       starts are A_i = Gamma*(i) within [0, T], and Gamma*(i) lies in
       [0, T + 1], so A_i with T + 1 covers Gamma*(i): a minimum cut
       with every phi(i) in Gamma*(i) suffices.  A_i holds 0, the start
       every partition needs, because Gamma*(i) does; T needs no
       interval of its own unless Gamma*(i) holds it.
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
       from original nodes.  It reads each edge's stored live windows,
       the split's edges (``live_windows``: zero pieces dropped and each
       window clipped to b <= T - tau), and puts the second and later
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
       Gamma* is their Gamma.  No capacity enters a sum or one of their
       roles, so the sets are the same at every capacity, INF included;
       ``gadget.gadget_breakpoints`` derives them with every capacity 1.
    """
    v.check_balanced()
    full = attach_super_terminals(net, v)
    bps = cten_breakpoints(full, full.nodes)
    graph = build_cten(full, bps)
    value, flow = max_flow(graph)
    if value >= v.required():
        return FeasOutcome(True, bps, graph, value)
    side = flow.side
    # A holds the sources whose first interval (it holds 0) and the sinks
    # whose last interval (it holds T) is on the cut's source side.
    a = frozenset(
        i for i in net.terminals if graph.ranges[i][0 if i in net.sources else -1] in side
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
