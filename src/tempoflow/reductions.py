"""Super terminals s* and d*, one value: ``SuperTerminals``.

The expansion turns their capacities into arcs in closed form; only the
gadget form (``gadget.canonical_reduction``) and the tests materialize
them as one-shot edges of a second network.
"""

from __future__ import annotations

from .model import (
    INF,
    DemandVector,
    EdgeFn,
    ModelError,
    PiecewiseConstFn,
    TemporalNetwork,
    check_width,
    _is_cap,
)

S_STAR = "s*"
D_STAR = "d*"


class SuperTerminals:
    """A network with super terminals s* and d*, given by one capacity per terminal.

    s* feeds each source s at most ``caps[s]`` at time 0 and each sink d
    drains at most ``caps[d]`` into d* at time T, both with travel time 0;
    INF is allowed.  Its expansion has s* and d* as nodes after the
    network's own and one arc per terminal with a positive capacity, in
    closed form (``build_cten``), so no second network is built.
    ``materialize`` gives the same network with the super edges as edges,
    for readers that walk edges one by one.  ``windows`` holds the live
    windows of the network's own edges (``TemporalNetwork.windows``),
    which the breakpoint reader and the expansion both read.  Unlike
    the value types (``model.Value``) it has no value equality: it is
    compared by identity.
    """

    __slots__ = ("net", "caps", "windows")
    sources = frozenset({S_STAR})
    sinks = frozenset({D_STAR})

    def __init__(self, net: TemporalNetwork, caps: dict[str, int | float]):
        if S_STAR in net.nodes or D_STAR in net.nodes:
            raise ModelError(f"node ids {S_STAR!r}/{D_STAR!r} are reserved")
        if caps.keys() != net.terminals:
            raise ModelError(
                f"need one super-edge capacity per terminal: got {sorted(caps)}, "
                f"terminals {sorted(net.terminals)}"
            )
        for t, cap in caps.items():
            if not _is_cap(cap):
                raise ModelError(
                    f"super-edge capacity {cap!r} of {t} is not a non-negative integer or INF"
                )
            check_width(cap, f"super-edge capacity of {t}")
        self.net, self.caps, self.windows = net, caps, net.windows()

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.net.nodes + (S_STAR, D_STAR)

    @property
    def horizon(self) -> int:
        return self.net.horizon

    def materialize(self) -> TemporalNetwork:
        """The network with an s*-edge into each source and a d*-edge out of each sink.

        Each is a one-shot edge at time 0 (s*) or T (d*), added sources
        sorted, then sinks sorted.  They share one zero travel-time
        function, and edges with equal times and capacities are one object
        (EdgeFn is immutable).
        """
        net, T = self.net, self.net.horizon
        edges = dict(net.edges)
        zero = PiecewiseConstFn.constant(0, T)
        built: dict[tuple, EdgeFn] = {}

        def super_edge(t, cap) -> EdgeFn:
            if (t, cap) not in built:
                pieces = ((0, t - 1, 0), (t, t, cap), (t + 1, T, 0))
                built[t, cap] = EdgeFn(
                    PiecewiseConstFn(tuple(p for p in pieces if p[0] <= p[1])), zero
                )
            return built[t, cap]

        for s in sorted(net.sources):
            edges[(S_STAR, s)] = super_edge(0, self.caps[s])
        for d in sorted(net.sinks):
            edges[(d, D_STAR)] = super_edge(T, self.caps[d])
        return TemporalNetwork(self.nodes, edges, self.sources, self.sinks, T)


def inner_parts(
    net: TemporalNetwork | SuperTerminals,
) -> tuple[TemporalNetwork, dict[tuple[str, str], list], dict[str, int | float]]:
    """The network without super terminals, its edges' live windows, and the super caps.

    A plain network has no super caps, and its windows are read here.
    """
    if isinstance(net, SuperTerminals):
        return net.net, net.windows, net.caps
    return net, net.windows(), {}


def attach_super_terminals(net: TemporalNetwork, v: DemandVector) -> SuperTerminals:
    """Super terminals that supply -v(s) to each source and drain v(d) from each sink.

    Demands must be given for terminals only, with their signs.
    """
    v.check_against(net)
    return SuperTerminals(net, {t: abs(v.get(t)) for t in net.terminals})


def set_super_terminals(net: TemporalNetwork, a: frozenset[str]) -> SuperTerminals:
    """Super terminals whose maximum flow over time is o_T(A).

    The sources in the terminal set A and the sinks outside it get
    infinite super edges, every other terminal a closed one, so the value
    is what A's sources can deliver to the other sinks by the horizon.
    The maximum flow over time from s to d is o_T({s}).
    """
    extra = a - net.terminals
    if extra:
        raise ModelError(f"not terminals: {sorted(extra)}")
    return SuperTerminals(
        net, {t: INF if (t in a) == (t in net.sources) else 0 for t in net.terminals}
    )
