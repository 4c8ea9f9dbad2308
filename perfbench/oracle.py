"""Independent answers for the benchmark's correctness check.

The full time expansion is built here directly from the network semantics
with networkx, sharing no code with the package's expansion, reductions or
max flow (it mirrors the oracle of the test suite).  Answers for a
time-stretched draw are derived from its unstretched draw, whose full
expansion is small.
"""

from __future__ import annotations

import networkx as nx

SUPER_SOURCE = ("__oracle_source__", -1)
SUPER_SINK = ("__oracle_sink__", -1)


def _value(fn, t: int):
    """Value of a piecewise function (tuple of (start, end, value)) at t."""
    for a, b, val in fn.pieces:
        if a <= t <= b:
            return val
    raise ValueError(f"t={t} outside [0, {fn.pieces[-1][1]}]")


def _value_at(fn, t: int):
    """Value at t, holding the last piece's value past the domain end."""
    last = fn.pieces[-1]
    return last[2] if t > last[1] else _value(fn, t)


def max_flow_over_time(net, horizon: int, v=None) -> int:
    """Max flow over time of ``net`` up to ``horizon`` via a full expansion.

    The network's functions are read at each step up to ``horizon``; past
    their domain they keep their last value, which is how the solvers
    extend a network to a longer horizon.  With demands given, super
    terminals cap each source at -v(s) and each sink at v(d); without
    them, terminals are open.  Missing capacity attributes are infinite.
    """
    T = horizon
    g = nx.DiGraph()
    for i in net.nodes:
        for t in range(T):
            g.add_edge((i, t), (i, t + 1))
    for (i, j), fn in net.edges.items():
        for t in range(T + 1):
            u = _value_at(fn.capacity, t)
            tau = _value_at(fn.travel_time, t)
            if u == 0 or t + tau > T:
                continue
            arrive = (j, t + tau)
            if g.has_edge((i, t), arrive):
                g[(i, t)][arrive]["capacity"] += u
            else:
                g.add_edge((i, t), arrive, capacity=u)
    for s in net.sources:
        attrs = {} if v is None else {"capacity": -v.get(s)}
        g.add_edge(SUPER_SOURCE, (s, 0), **attrs)
    for d in net.sinks:
        attrs = {} if v is None else {"capacity": v.get(d)}
        g.add_edge((d, T), SUPER_SINK, **attrs)
    value, _ = nx.maximum_flow(g, SUPER_SOURCE, SUPER_SINK)
    return value


def feasible(net, horizon: int, v) -> bool:
    required = sum(d for d in v.values.values() if d > 0)
    return max_flow_over_time(net, horizon, v) >= required


def least_feasible_horizon(net, v, cap: int) -> int | None:
    """Smallest T <= cap at which the demands are feasible, or None.

    Feasibility is monotone in the horizon (a flow for T is a flow for
    T + 1), so bisection over the oracle finds the least horizon.
    """
    if all(d == 0 for d in v.values.values()):
        return 0
    if not feasible(net, cap, v):
        return None
    lo, hi = -1, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(net, mid, v):
            hi = mid
        else:
            lo = mid
    return hi
