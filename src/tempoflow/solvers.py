"""End-to-end solvers: feasibility, quickest horizon, max flow over time.

Verdicts and optimal values come from the condensed-expansion fast path;
witness flows come from a max flow on the full expansion of the original
network with super terminals attached, which is exact but only available
at oracle scale (the expansion is gated by a size budget).
"""

from __future__ import annotations

from .model import (
    INF,
    MAX_INT,
    DemandVector,
    EdgeFn,
    FlowOverTime,
    ModelError,
    PiecewiseConstFn,
    TemporalNetwork,
)
from .reductions import D_STAR, S_STAR, attach_super_terminals, set_super_terminals

# The gadget reduction and the one-shot split left the verdict path; these
# names stay for the benchmark's span probes, which look them up here.
from .model import to_one_shot  # noqa: F401
from .reductions import canonical_reduction, hoppe_tardos_star  # noqa: F401
from .breakpoints import cten_breakpoints
from .expansion import OracleBudgetError, build_cten, build_ten
from .maxflow import UnboundedFlowError, max_flow
from .feasibility import FeasOutcome, feas


class BoundedSearchError(ModelError):
    """The quickest search hit its horizon cap while still infeasible."""


def _check_horizon(net: TemporalNetwork, horizon: int):
    if horizon != net.horizon:
        raise ModelError(f"horizon {horizon} does not match the network horizon {net.horizon}")


def dttn_feasible(net: TemporalNetwork, horizon: int, v: DemandVector) -> FeasOutcome:
    """Feasibility of a dynamic transshipment on a temporal network."""
    _check_horizon(net, horizon)
    return feas(net, v)


def _at_horizon(net: TemporalNetwork, horizon: int) -> TemporalNetwork:
    """The same network truncated or extended to a different horizon; itself at its own."""
    if horizon == net.horizon:
        return net
    if horizon < 0:
        raise ModelError(f"horizon must be non-negative, got {horizon}")

    def clip(fn: PiecewiseConstFn) -> PiecewiseConstFn:
        pieces = []
        for (a, b, val) in fn.pieces:
            if a > horizon:
                break
            pieces.append((a, min(b, horizon), val))
        last = pieces[-1]
        if last[1] < horizon:
            pieces[-1] = (last[0], horizon, last[2])
        return PiecewiseConstFn(tuple(pieces))

    edges = {
        e: EdgeFn(clip(fn.capacity), clip(fn.travel_time)) for e, fn in net.edges.items()
    }
    return TemporalNetwork(net.nodes, edges, net.sources, net.sinks, horizon)


def quickest_transshipment(
    net: TemporalNetwork, v: DemandVector, horizon_cap: int
) -> tuple[int, FlowOverTime | None]:
    """Least horizon at which the transshipment is feasible, with a witness.

    Exponential search doubles the probe until feasible, then binary
    search closes the range; feasibility is monotone in the horizon since
    a flow for T is a flow for T + 1.  Horizon 0 is probed only once
    horizon 1 is known feasible, or when the cap is 0.  Each probe is a
    whole verdict on the network truncated or extended to its horizon.  The
    witness is extracted at oracle scale and is None when the full
    expansion exceeds its budget.
    """
    v.check_balanced()
    if horizon_cap < 0:
        raise ModelError("horizon cap must be non-negative")
    if all(d == 0 for d in v.values.values()):
        return 0, FlowOverTime({})

    def probe(T: int) -> bool:
        return dttn_feasible(_at_horizon(net, T), T, v).feasible

    lo, hi = -1, None  # lo: largest horizon known infeasible
    t = 1
    while t <= horizon_cap:
        if probe(t):
            hi = t
            break
        lo = t
        t *= 2
    if hi is None:
        if lo < horizon_cap and probe(horizon_cap):
            hi = horizon_cap
        else:
            raise BoundedSearchError(f"infeasible at every horizon up to {horizon_cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    try:
        witness = extract_flow(net, hi, v)
    except OracleBudgetError:
        witness = None
    return hi, witness


def max_flow_over_time(
    net: TemporalNetwork, horizon: int
) -> tuple[int | float, FlowOverTime | None]:
    """Largest deliverable amount from the single source to the single sink.

    The original nodes' breakpoints are read off the network's live
    windows, as in ``feas`` (the sets do not depend on any capacity).  The answer is
    o_T({s}): one steady-state max flow on the condensed expansion of the
    network with infinite super edges at both terminals.  When INF
    capacities open a path of unbounded capacity from s to d in time, the
    answer is ``(INF, None)``: no finite flow is a witness.  A value past
    the machine integer range is exact but no demand vector holds it, so
    its witness is skipped, as past the full expansion's budget.
    """
    if len(net.sources) != 1 or len(net.sinks) != 1:
        raise ModelError("max flow over time requires a single source and sink")
    _check_horizon(net, horizon)
    (s,), (d,) = net.sources, net.sinks
    full = set_super_terminals(net, frozenset({s}))
    try:
        best, _ = max_flow(build_cten(full, cten_breakpoints(full, full.nodes)))
    except UnboundedFlowError:
        return INF, None
    if best > MAX_INT:
        return best, None
    try:
        witness = extract_flow(net, horizon, DemandVector({s: -best, d: best}))
    except OracleBudgetError:
        witness = None
    return best, witness


def extract_flow(net: TemporalNetwork, horizon: int, v: DemandVector) -> FlowOverTime:
    """An integral flow meeting the demands, from the full expansion.

    Attaches super terminals to the original network, solves the full
    expansion, and reads departures off the inter-node arcs (holdover arcs
    are storage and stay implicit).  ``attach_super_terminals`` checks the
    demands against the terminals.
    """
    v.check_balanced()
    full = attach_super_terminals(_at_horizon(net, horizon), v)
    graph = build_ten(full)
    required = v.required()
    value, flow = max_flow(graph)
    if value < required:
        raise ModelError(
            f"instance is infeasible (flow {value} < demand {required}); no witness exists"
        )
    return FlowOverTime(
        {
            (e, t): amount
            for (e, t), amount in graph.departures(flow.arc_flows).items()
            if S_STAR not in e and D_STAR not in e
        }
    )
