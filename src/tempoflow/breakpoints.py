"""Critical-time sets that make the condensed expansion exact.

A minimum cut of the full expansion can always be rearranged, at equal
cost, so that every node's cut time is "pinned": connected to a node
sitting at a boundary value (0 or T + 1) through a chain of edges whose
endpoint cut times differ by exactly the edge's travel time.  Pin chains
traverse edges in either orientation and terminate at the first node that
settles on the boundary — the super terminals and the pseudoterminals.

Gamma(i) therefore collects, over undirected simple paths from i to any
potential boundary node (with no boundary node in the interior of the
path), the sums of signed travel times, offset by both boundary values
and clamped to [0, T + 1].  Blocking propagation through boundary nodes
is what keeps the sets small: on gadget-reduced networks each set is
proportional to the local degree, so the condensed expansion has size
linear in the number of constant pieces and independent of the horizon.

For a pseudo-pseudosink the settling moves land its cut time on one of
its two in-neighbors' values (or the boundary), so its set (Gamma*)
borrows the union of the in-neighbors' sets instead of its own.
"""

from __future__ import annotations

from .model import ModelError
from .reductions import CanonicalTemporalNetwork, StructuralError

# Simple paths enumerated per node before giving up.
PATH_CAP = 200_000


class EnumerationCapError(ModelError):
    """Too many simple paths for direct enumeration."""


BreakpointSet = tuple[int, ...]


def _const_tt(canon: CanonicalTemporalNetwork, edge: tuple[str, str]) -> int:
    return canon.net.edges[edge].travel_time.pieces[0][2]


def _anchors(canon: CanonicalTemporalNetwork) -> frozenset[str]:
    """Nodes that settle on a boundary value in some minimum cut."""
    return frozenset({canon.s_star, canon.d_star}) | canon.ps_plus | canon.ps_minus


def _trivial_gamma(canon: CanonicalTemporalNetwork, i: str) -> bool:
    if i in _anchors(canon):
        return True
    has_in = any(e[1] == i for e in canon.net.edges)
    has_out = any(e[0] == i for e in canon.net.edges)
    return not has_in or not has_out


def _pin_sums(canon: CanonicalTemporalNetwork, start: str) -> set[int]:
    """Signed sums over undirected simple paths from start to any anchor.

    Edges are traversed in either orientation; each contributes plus or
    minus its travel time, and when the reverse edge also exists its
    travel time contributes with both signs too.  Anchors terminate a
    path and never appear in its interior.
    """
    edges = canon.net.edges
    anchors = _anchors(canon)
    adjacent: dict[str, list[tuple[str, tuple[str, str]]]] = {
        n: [] for n in canon.net.nodes
    }
    for (a, b) in edges:
        adjacent[a].append((b, (a, b)))
        adjacent[b].append((a, (a, b)))

    def weights(edge: tuple[str, str]) -> set[int]:
        tau = _const_tt(canon, edge)
        w = {tau, -tau}
        rev = (edge[1], edge[0])
        if rev in edges:
            tau_r = _const_tt(canon, rev)
            w |= {tau_r, -tau_r}
        return w

    sums: set[int] = set()
    budget = PATH_CAP
    path: list[tuple[str, str]] = []
    on_path = {start}

    def emit():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise EnumerationCapError(
                f"more than {PATH_CAP} simple paths from {start}"
            )
        totals = {0}
        for edge in path:
            totals = {t + w for t in totals for w in weights(edge)}
        sums.update(totals)

    def dfs(node: str):
        for nxt, edge in adjacent[node]:
            if nxt in on_path:
                continue
            path.append(edge)
            if nxt in anchors:
                emit()
            else:
                on_path.add(nxt)
                dfs(nxt)
                on_path.remove(nxt)
            path.pop()

    dfs(start)
    return sums


def gamma_enumerate(canon: CanonicalTemporalNetwork, i: str) -> BreakpointSet:
    """Gamma(i): clamped signed pin-path sums from both boundary values."""
    T = canon.horizon
    if _trivial_gamma(canon, i):
        return (0, T + 1)
    sums = _pin_sums(canon, i)
    raw = {0, T + 1}
    raw.update(s for s in sums)
    raw.update(T + 1 + s for s in sums)
    return tuple(sorted(t for t in raw if 0 <= t <= T + 1))


def gamma_star(canon: CanonicalTemporalNetwork, i: str) -> BreakpointSet:
    """Gamma*(i): for a pseudo-pseudosink, its in-neighbors' sets combined.

    The settling stage moves a pseudo-pseudosink onto one of its two
    in-neighbors' cut times or the boundary, so the union of their sets
    covers every value it can end on.
    """
    if i not in canon.pps_minus:
        return gamma_enumerate(canon, i)
    preds = sorted(e[0] for e in canon.net.edges if e[1] == i)
    if len(preds) != 2:
        raise StructuralError(f"pseudo-pseudosink {i} has {len(preds)} in-neighbors")
    ga = gamma_enumerate(canon, preds[0])
    gb = gamma_enumerate(canon, preds[1])
    return tuple(sorted(set(ga) | set(gb)))


def pps_settle_neighbor(canon: CanonicalTemporalNetwork, i: str) -> str:
    """The in-neighbor a pseudo-pseudosink settles toward (smaller set wins)."""
    preds = sorted(e[0] for e in canon.net.edges if e[1] == i)
    if len(preds) != 2:
        raise StructuralError(f"pseudo-pseudosink {i} has {len(preds)} in-neighbors")
    ga = gamma_enumerate(canon, preds[0])
    gb = gamma_enumerate(canon, preds[1])
    return preds[0] if len(ga) <= len(gb) else preds[1]


def cten_breakpoints(canon: CanonicalTemporalNetwork) -> dict[str, BreakpointSet]:
    """Per-node sets A_i = (Gamma*(i) within [0, T]) with 0 and T forced in.

    T + 1 is dropped: a cut time of T + 1 puts the node entirely on the
    sink side, which the partition can already express.
    """
    T = canon.horizon
    out: dict[str, BreakpointSet] = {}
    for i in canon.net.nodes:
        g = gamma_star(canon, i)
        out[i] = tuple(sorted({0, T} | {t for t in g if 0 <= t <= T}))
    return out
