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
straight off the temporal network (``cten_breakpoints``): each edge's
live windows come off its merged pieces, split as the one-shot split
splits them but with no one-shot network built.  Every gadget edge has
travel time alpha, tau, T - beta or 0, so a pin path crosses the gadget
of one-shot edge x -> y in one of a few fixed shapes.  It enters at x (or
y), may leave through one of the gadget's four anchors, and otherwise
crosses to the other endpoint with plus or minus tau.  Crossing uses the
gadget's t+ and t-, so a path crosses each gadget at most once and cannot
leave through the gadget it arrived by.  The gadget form itself, one pin
graph per canonical network (``canonical_breakpoints``), stays as the
independent derivation that certificates and tests check the sets with.
"""

from __future__ import annotations

from .model import INF, MAX_INT, ModelError, TemporalNetwork, live_windows, relay_name
from .reductions import (
    D_STAR,
    S_STAR,
    CanonicalTemporalNetwork,
    StructuralError,
    SuperTerminals,
    check_gadget_names,
    check_gadget_width,
    inner_parts,
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
        extends the partial sums of the path so far by one edge's weights;
        the path is an explicit stack, so its length is not bounded by the
        interpreter's recursion limit.
        """
        sums: set[int] = set()
        budget = PATH_CAP
        on_path = {start}
        # Per path node: its remaining steps and the path's partial sums.
        stack = [(start, iter(self.adjacent[start]), {0})]
        while stack:
            node, steps, partial = stack[-1]
            for nxt, weights in steps:
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
                    stack.append((nxt, iter(self.adjacent[nxt]), reached))
                    break
            else:
                stack.pop()
                on_path.remove(node)
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
        preds = self.into[i]
        if len(preds) != 2:
            raise StructuralError(f"pseudo-pseudosink {i} has {len(preds)} in-neighbors")
        return tuple(sorted(set(self.gamma(preds[0])) | set(self.gamma(preds[1]))))


def gamma_enumerate(canon: CanonicalTemporalNetwork, i: str) -> BreakpointSet:
    """Gamma(i): clamped signed pin-path sums from both boundary values."""
    return _PinGraph(canon).gamma(i)


def gamma_star(
    canon: CanonicalTemporalNetwork, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """Gamma*(i) for each of ``nodes``, all read off one pin graph.

    Gamma* is Gamma, except that a pseudo-pseudosink gets its in-neighbors'
    sets combined: the settling stage moves it onto one of its two
    in-neighbors' cut times or the boundary, so the union of their sets
    covers every value it can end on.
    """
    pins = _PinGraph(canon)
    return {i: pins.gamma_star(i) for i in nodes}


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
    return {
        i: tuple(sorted({0, T} | {t for t in g if t <= T}))
        for i, g in gamma_star(canon, nodes).items()
    }


def _relay_named(nodes: tuple[str, ...], one_shot: list) -> tuple[tuple[str, ...], list]:
    """The one-shot nodes and edges, each relay key (i, j, k) named as ``to_one_shot`` names it."""
    existing = set(nodes)
    names: dict[tuple, str] = {}
    for _, y in one_shot:
        if isinstance(y, tuple) and y not in names:
            names[y] = relay_name(*y, existing)
    return nodes + tuple(names.values()), [(names.get(x, x), names.get(y, y)) for x, y in one_shot]


def cten_breakpoints(
    net: TemporalNetwork | SuperTerminals, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """The gadget form's sets A_i for original nodes, read off the network's windows.

    ``nodes`` are nodes of ``net`` or s*/d*, never gadget nodes (so never
    pseudo-pseudosinks: Gamma* is Gamma).  Each edge's live windows are
    read off its merged pieces as ``to_one_shot`` splits them
    (``live_windows``): the first joins the edge's endpoints, and each
    further one runs to an implicit relay node, keyed by the tuple
    (i, j, k), whose always-open zero-length edge leads on to j.  A
    one-shot edge x -> y with window [alpha, beta] and travel time tau is
    one undirected step of weight plus or minus tau between x and y.  A
    path at x with partial sums P also reaches the gadget's anchors with
    P + {+-alpha, 0, 0, +-(T - beta)} (through s+, s2-, s2+ and s-: four
    paths), and a path at y with P +- tau + the same offsets.  The sets
    and the counts charged against ``PATH_CAP`` are those of the gadget
    form path for path.  What the gadgets could not represent is rejected,
    INF capacities aside, which no set reads.
    """
    net, pieces, _ = inner_parts(net)
    T = net.horizon
    # A finite capacity above this makes a gadget demand u * (T + 1) overflow.
    widest = MAX_INT // (T + 1)
    anchors = net.sources | net.sinks | {S_STAR, D_STAR}
    # Per node, per incident one-shot edge: (edge id, far endpoint, tau, exit offsets).
    sides: dict = {n: [] for n in net.nodes}
    heads, tails = set(), set()
    # (x, y) per one-shot edge, in to_one_shot's order; y is a relay key
    # (i, j, k) for every window of an edge after its first.
    one_shot: list = []
    for (i, j), edge_pieces in pieces.items():
        windows = live_windows(edge_pieces, T)
        for n, (k, a, b, u, tau) in enumerate(windows):
            y = j if n == 0 else (i, j, k)
            if u > widest and u != INF:  # rejected: name the edge as to_one_shot would
                _, named = _relay_named(net.nodes, one_shot + [(i, y)])
                check_gadget_width(u, T, *named[-1])
            near = {a, -a, 0, T - b, b - T}
            far = {w + s for w in near for s in (tau, -tau)}
            sides[i].append((len(one_shot), y, tau, near))
            if n == 0:
                sides[j].append((len(one_shot), i, tau, far))
                one_shot.append((i, j))
            else:
                sides[y] = [(len(one_shot), i, tau, far), (len(one_shot) + 1, j, 0, {0})]
                sides[j].append((len(one_shot) + 1, y, 0, {0}))
                one_shot += [(i, y), (y, j)]
        if windows:
            tails.add(i)
            heads.add(j)
    if any(":" in n for n in net.nodes):
        check_gadget_names(*_relay_named(net.nodes, one_shot))

    def pin_sums(start: str) -> set[int]:
        sums: set[int] = set()
        budget = PATH_CAP
        on_path = {start}

        def charge(paths: int):
            nonlocal budget
            budget -= paths
            if budget < 0:
                raise EnumerationCapError(f"more than {PATH_CAP} simple paths from {start}")

        # Per path node: its remaining sides, the path's partial sums and
        # the edge it arrived by; an explicit stack, as in _PinGraph.pin_sums.
        stack = [(start, iter(sides[start]), {0}, None)]
        while stack:
            node, steps, partial, arrived_by = stack[-1]
            for edge, far, tau, exits in steps:
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
                    stack.append((far, iter(sides[far]), reached, edge))
                    break
            else:
                stack.pop()
                on_path.remove(node)
        return sums

    return {
        # Anchors and nodes lacking an in- or an out-edge have {0, T}.
        i: _clip(set() if i in anchors or i not in heads or i not in tails else pin_sums(i), T)
        for i in nodes
    }
