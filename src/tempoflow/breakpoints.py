"""Critical-time sets that make the condensed expansion exact.

A minimum cut of the full expansion of the gadget-reduced canonical
network can always be rearranged, at equal cost, so that every node's cut
time is "pinned": connected to a node sitting at a boundary value (0 or
T + 1) through a chain of edges whose endpoint cut times differ by exactly
the edge's travel time.  Pin chains traverse edges in either orientation
and terminate at the first node that settles on the boundary — the super
terminals and the pseudoterminals (the anchors).

Gamma(i) therefore collects, over undirected simple paths from i to any
anchor (with no anchor in the interior of the path), the sums of signed
travel times, offset by both boundary values and clamped to [0, T + 1].
Blocking propagation through anchors is what keeps the sets small: on
gadget-reduced networks each set is proportional to the local degree, so
the condensed expansion has size linear in the number of constant pieces
and independent of the horizon.  For a pseudo-pseudosink the settling
moves land its cut time on one of its two in-neighbors' values (or the
boundary), so its set (Gamma*) borrows the union of the in-neighbors' sets.

The verdict needs the sets of the original nodes only, and those are read
straight off the one-shot network (``cten_breakpoints``): every gadget
edge has travel time alpha, tau, T - beta or 0, so a pin path crosses the
gadget of edge x -> y in one of a few fixed shapes.  It enters at x (or
y), may leave through one of the gadget's four anchors, and otherwise
crosses to the other endpoint with plus or minus tau.  Crossing uses the
gadget's t+ and t-, so a path crosses each gadget at most once and cannot
leave through the gadget it arrived by.  The gadget form itself, one pin
graph per canonical network (``canonical_breakpoints``), stays as the
independent derivation that certificates and tests check the sets with.
"""

from __future__ import annotations

from .model import ModelError, OneShotNetwork
from .reductions import (
    D_STAR,
    S_STAR,
    CanonicalTemporalNetwork,
    StructuralError,
    check_gadget_reducible,
)

# Simple paths enumerated per node before giving up.
PATH_CAP = 200_000


class EnumerationCapError(ModelError):
    """Too many simple paths for direct enumeration."""


BreakpointSet = tuple[int, ...]


class _PinGraph:
    """What pin-path enumeration reads off a canonical network, built once."""

    def __init__(self, canon: CanonicalTemporalNetwork):
        self.horizon = canon.horizon
        self.pps = canon.pps_minus
        self.gammas: dict[str, BreakpointSet] = {}
        # Nodes that settle on a boundary value in some minimum cut.
        self.anchors = frozenset({canon.s_star, canon.d_star}) | canon.ps_plus | canon.ps_minus
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

    def pin_sums(self, start: str) -> set[int]:
        """Signed sums over undirected simple paths from start to any anchor.

        Edges are traversed in either orientation; each contributes plus or
        minus its travel time, and when the reverse edge also exists its
        travel time contributes with both signs too.  Anchors terminate a
        path and never appear in its interior.  Each step of the search
        extends the partial sums of the path so far by one edge's weights.
        """
        sums: set[int] = set()
        budget = PATH_CAP
        on_path = {start}

        def dfs(node: str, partial: set[int]):
            nonlocal budget
            for nxt, weights in self.adjacent[node]:
                if nxt in on_path:
                    continue
                reached = {t + w for t in partial for w in weights}
                if nxt in self.anchors:
                    budget -= 1
                    if budget < 0:
                        raise EnumerationCapError(
                            f"more than {PATH_CAP} simple paths from {start}"
                        )
                    sums.update(reached)
                else:
                    on_path.add(nxt)
                    dfs(nxt, reached)
                    on_path.remove(nxt)

        dfs(start, {0})
        return sums

    def gamma(self, i: str) -> BreakpointSet:
        """Gamma(i), enumerated at most once per node."""
        if i not in self.gammas:
            T = self.horizon
            # Anchors and nodes lacking an in- or an out-edge have {0, T + 1}.
            trivial = i in self.anchors or not self.into[i] or i not in self.tails
            sums = set() if trivial else self.pin_sums(i)
            raw = {0, T + 1} | sums | {T + 1 + s for s in sums}
            self.gammas[i] = tuple(sorted(t for t in raw if 0 <= t <= T + 1))
        return self.gammas[i]

    def gamma_star(self, i: str) -> BreakpointSet:
        if i not in self.pps:
            return self.gamma(i)
        a, b = self.pps_in_neighbors(i)
        return tuple(sorted(set(self.gamma(a)) | set(self.gamma(b))))

    def pps_in_neighbors(self, i: str) -> tuple[str, str]:
        preds = sorted(self.into[i])
        if len(preds) != 2:
            raise StructuralError(f"pseudo-pseudosink {i} has {len(preds)} in-neighbors")
        return preds[0], preds[1]


def gamma_enumerate(canon: CanonicalTemporalNetwork, i: str) -> BreakpointSet:
    """Gamma(i): clamped signed pin-path sums from both boundary values."""
    return _PinGraph(canon).gamma(i)


def gamma_star(canon: CanonicalTemporalNetwork, i: str) -> BreakpointSet:
    """Gamma*(i): for a pseudo-pseudosink, its in-neighbors' sets combined.

    The settling stage moves a pseudo-pseudosink onto one of its two
    in-neighbors' cut times or the boundary, so the union of their sets
    covers every value it can end on.
    """
    return _PinGraph(canon).gamma_star(i)


def pps_settle_neighbor(canon: CanonicalTemporalNetwork, i: str) -> str:
    """The in-neighbor a pseudo-pseudosink settles toward (smaller set wins)."""
    pins = _PinGraph(canon)
    a, b = pins.pps_in_neighbors(i)
    return a if len(pins.gamma(a)) <= len(pins.gamma(b)) else b


def _clip(sums: set[int], horizon: int) -> BreakpointSet:
    """A_i from the pin sums of Gamma(i): both boundary offsets within [0, T], plus 0 and T.

    T + 1 is dropped: a cut time of T + 1 puts the node entirely on the
    sink side, which the partition can already express.
    """
    T = horizon
    kept = {t for t in sums if 0 <= t <= T} | {T + 1 + t for t in sums if -T - 1 <= t < 0}
    return tuple(sorted({0, T} | kept))


def canonical_breakpoints(
    canon: CanonicalTemporalNetwork, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """Sets A_i = (Gamma*(i) within [0, T]) with 0 and T forced in, for ``nodes``.

    Enumerated on the gadget form; every node in ``nodes`` must be a node
    of ``canon``.
    """
    T = canon.horizon
    pins = _PinGraph(canon)
    return {
        i: tuple(sorted({0, T} | {t for t in pins.gamma_star(i) if t <= T}))
        for i in nodes
    }


def cten_breakpoints(
    one_shot: OneShotNetwork, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """The gadget form's sets A_i for original nodes, read off the one-shot network.

    ``nodes`` are nodes of ``one_shot`` or s*/d*, never gadget nodes (so
    never pseudo-pseudosinks: Gamma* is Gamma).  An edge x -> y with window
    [alpha, beta] and travel time tau is one undirected step of weight
    plus or minus tau between x and y.  A path at x with partial sums P
    also reaches the gadget's anchors with P + {+-alpha, 0, 0, +-(T - beta)}
    (through s+, s2-, s2+ and s-: four paths), and a path at y with
    P +- tau + the same offsets.  The sets and the counts charged against
    ``PATH_CAP`` are those of the gadget form path for path.  The input
    must be gadget-reducible except for INF capacities, which no set reads.
    """
    check_gadget_reducible(one_shot)
    T = one_shot.horizon
    anchors = one_shot.sources | one_shot.sinks | {S_STAR, D_STAR}
    # Per node, per incident edge: (edge, far endpoint, tau, exit offsets).
    sides: dict[str, list[tuple[tuple[str, str], str, int, set[int]]]] = {
        n: [] for n in one_shot.nodes
    }
    heads, tails = set(), set()
    for edge, e in one_shot.edges.items():
        x, y = edge
        tau = e.travel_time
        near = {e.alpha, -e.alpha, 0, T - e.beta, e.beta - T}
        sides[x].append((edge, y, tau, near))
        sides[y].append((edge, x, tau, {w + s for w in near for s in (tau, -tau)}))
        tails.add(x)
        heads.add(y)

    def pin_sums(start: str) -> set[int]:
        sums: set[int] = set()
        budget = PATH_CAP
        on_path = {start}

        def charge(paths: int):
            nonlocal budget
            budget -= paths
            if budget < 0:
                raise EnumerationCapError(f"more than {PATH_CAP} simple paths from {start}")

        def dfs(node: str, partial: set[int], arrived_by):
            for edge, far, tau, exits in sides[node]:
                if edge == arrived_by:  # its t+ and t- are on the path
                    continue
                charge(4)
                sums.update(p + w for p in partial for w in exits)
                if far in on_path:
                    continue
                reached = {p + s for p in partial for s in (tau, -tau)}
                if far in anchors:
                    charge(1)
                    sums.update(reached)
                else:
                    on_path.add(far)
                    dfs(far, reached, edge)
                    on_path.remove(far)

        dfs(start, {0}, None)
        return sums

    return {
        # Anchors and nodes lacking an in- or an out-edge have {0, T}.
        i: _clip(set() if i in anchors or i not in heads or i not in tails else pin_sums(i), T)
        for i in nodes
    }
