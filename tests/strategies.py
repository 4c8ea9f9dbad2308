"""Hypothesis strategies for piecewise functions, networks, and demands."""

from __future__ import annotations

from hypothesis import strategies as st

from tempoflow import INF, DemandVector, EdgeFn, PiecewiseConstFn, TemporalNetwork

MAX_HORIZON = 10
MAX_CAP = 5
MAX_TT = 3


@st.composite
def piecewise_fns(
    draw, horizon: int | None = None, low: int = 0, high: int = MAX_CAP, inf: bool = False
):
    """A piecewise-constant function tiling [0, T] with integer values (or INF)."""
    T = horizon if horizon is not None else draw(st.integers(0, MAX_HORIZON))
    cuts = draw(
        st.lists(st.integers(1, T), unique=True, max_size=3).map(sorted)
        if T >= 1
        else st.just([])
    )
    bounds = [0, *cuts, T + 1]
    values = st.integers(low, high) | st.just(INF) if inf else st.integers(low, high)
    pieces = tuple((a, b - 1, draw(values)) for a, b in zip(bounds, bounds[1:]))
    return PiecewiseConstFn(pieces)


@st.composite
def edge_fns(draw, horizon: int | None = None, inf: bool = False):
    T = horizon if horizon is not None else draw(st.integers(0, MAX_HORIZON))
    cap = draw(piecewise_fns(horizon=T, inf=inf))
    tt = draw(piecewise_fns(horizon=T, low=0, high=MAX_TT))
    return EdgeFn(cap, tt)


@st.composite
def temporal_networks(draw, inf: bool = False):
    """A small layered network: sources first, sinks last, edges forward.

    With ``inf``, edge capacities may also be INF.
    """
    T = draw(st.integers(1, MAX_HORIZON))
    n = draw(st.integers(2, 5))
    names = [f"n{k}" for k in range(n)]
    n_sources = draw(st.integers(1, min(2, n - 1)))
    n_sinks = draw(st.integers(1, n - n_sources))
    sources = frozenset(names[:n_sources])
    sinks = frozenset(names[-n_sinks:])
    candidates = [
        (names[a], names[b])
        for a in range(n)
        for b in range(a + 1, n)
        if names[a] not in sinks and names[b] not in sources
    ]
    chosen = draw(
        st.lists(st.sampled_from(candidates), unique=True, min_size=1, max_size=6)
    )
    edges = {key: draw(edge_fns(horizon=T, inf=inf)) for key in sorted(chosen)}
    return TemporalNetwork(tuple(names), edges, sources, sinks, T)


@st.composite
def balanced_demands(draw, net: TemporalNetwork):
    """A balanced demand vector on the network's terminals."""
    srcs, snks = sorted(net.sources), sorted(net.sinks)
    values = {t: 0 for t in srcs + snks}
    for _ in range(draw(st.integers(0, 8))):
        values[draw(st.sampled_from(srcs))] -= 1
        values[draw(st.sampled_from(snks))] += 1
    return DemandVector(values)


@st.composite
def demand_instances(draw, inf: bool = False):
    """A network (with INF capacities allowed under ``inf``) and balanced demands."""
    net = draw(temporal_networks(inf=inf))
    return net, draw(balanced_demands(net))
