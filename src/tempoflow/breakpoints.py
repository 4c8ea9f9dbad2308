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
Gamma*(i) within [0, T] suffices: 0 is in every Gamma*(i), and a cut time
of T + 1 needs no interval start.  So anchors and nodes lacking an in- or
an out-edge, whose Gamma is {0, T + 1}, get the one point 0: one vertex
over [0, T].

The verdict's sets (``cten_breakpoints``) are not all Gamma*.  Call a node
searched when it is no anchor and has a live in- and out-window (the
nodes whose Gamma takes a pin-path search), and settled when it is
searched and none of its live neighbours is.  A settled node gets 0 and
its own windows' local points: a and b + 1 of each out-window, a + tau
and b + tau + 1 of each in-window, within [0, T].  It takes no pin-path
search, so it never raises ``EnumerationCapError``.  Every other node
gets Gamma*(i) within [0, T] (``gamma_breakpoints``).  Each set lies
within Gamma*(i), and ``feasibility.feas`` (point 5) shows the expansion
stays exact.  One pass over the live windows finds the searched and the
settled nodes (``_Roles``); the pin graph is built only if some searched
node is not settled, and then once per call, so a network whose searched
nodes all settle is answered with no pin graph at all.

The verdict needs the sets of the original nodes only, and those are read
straight off the temporal network (``_WindowPins``): each edge's
stored live windows are the one-shot split's edges, with no one-shot
network built.  Every gadget edge has travel time alpha, tau, T - beta
or 0, so a pin path crosses the gadget of one-shot edge x -> y in one of
a few fixed shapes.  It enters at x (or y), may leave through one of the
gadget's four anchors, and otherwise crosses to the other endpoint with
plus or minus tau.  Crossing uses the gadget's t+ and t-, so a path
crosses each gadget at most once and cannot leave through the gadget it
arrived by.  What a path adds at a node, and how many gadget paths that
is, therefore depends only on the node and the edge the path arrived by:
the reader folds each such pair's exits into one offset set, once per
call, and every start shares it.  The gadget form itself, the
independent derivation that ``tempoflow verify`` and the tests check the
Gamma* sets with, lives in ``gadget``.  Its pin graph and this reader each
derive a visit as a ``fold(node, arrived_by)`` and hand their visits to
one depth-first search (``_pin_sums``), whose sums one formula
(``_clip``) turns into a set.
"""

from __future__ import annotations

from .model import ModelError, TemporalNetwork
from .reductions import D_STAR, S_STAR, SuperTerminals, inner_parts

# Simple paths enumerated per node before giving up.
PATH_CAP = 200_000


class EnumerationCapError(ModelError):
    """Too many simple paths for direct enumeration."""


def _over_cap(start) -> EnumerationCapError:
    return EnumerationCapError(f"more than {PATH_CAP} simple paths from {start}")


BreakpointSet = tuple[int, ...]


def _pin_sums(start, folded: dict, fold) -> set[int]:
    """Signed sums over simple pin paths from start to any anchor.

    ``fold(node, arrived_by)`` gives a visit's offsets to the anchors next
    to node, its ``PATH_CAP`` charge and its steps ``(edge, far, weights)``
    on to non-anchor nodes, and memoizes them in ``folded``.  The path is
    an explicit stack, so its length is not bounded by the recursion limit.
    """
    offsets, paths, steps = folded.get((start, None)) or fold(start, None)
    budget = PATH_CAP - paths
    if budget < 0:
        raise _over_cap(start)
    sums = set(offsets)
    on_path = {start}
    # Per path node: its untried steps and the path's partial sums.
    stack = [(start, iter(steps), {0})]
    while stack:
        node, untried, partial = stack[-1]
        for edge, far, weights in untried:
            if far not in on_path:
                break
        else:
            stack.pop()
            on_path.remove(node)
            continue
        offsets, paths, steps = folded.get((far, edge)) or fold(far, edge)
        budget -= paths
        if budget < 0:
            raise _over_cap(start)
        partial = {p + w for p in partial for w in weights}
        sums.update({p + o for p in partial for o in offsets})
        on_path.add(far)
        stack.append((far, iter(steps), partial))
    return sums


def _clip(sums: set[int], horizon: int) -> BreakpointSet:
    """A_i = Gamma(i) within [0, T], from Gamma(i)'s pin sums: 0 and both boundary offsets.

    T + 1 is dropped: a cut time of T + 1 puts the node entirely on the
    sink side, which the partition can already express.  T is kept only
    when a sum puts it in Gamma(i).
    """
    T = horizon
    kept = {t for t in sums if 0 <= t <= T} | {T + 1 + t for t in sums if -T - 1 <= t < 0}
    return tuple(sorted({0} | kept))


class _WindowPins:
    """The pin graph read off a network's live windows: its sides and ``fold``.

    The window reader's counterpart of ``gadget._PinGraph``.  Built only
    when a call has a searched node that is not settled, and then once
    per call (``_Roles.gamma``); its ``fold`` gives ``_pin_sums`` each
    visit, for ``gamma_breakpoints`` and ``cten_breakpoints`` alike.

    ``inner`` is a network without super terminals, ``windows`` its live
    windows and ``anchors`` its terminals with s* and d*; its nodes are
    never gadget nodes (so never pseudo-pseudosinks: Gamma* is Gamma).
    Each edge's stored live windows (``inner_parts``) are the edges
    ``gadget.to_one_shot`` splits it into: the first joins the edge's
    endpoints, and each further one runs to an implicit relay node, keyed
    by the tuple (i, j, k), whose always-open zero-length edge leads on to
    j.  A one-shot edge x -> y with window [alpha, beta] and travel time
    tau is one undirected step of weight plus or minus tau between x and
    y.  A path at x with partial sums P also reaches the gadget's anchors
    with P + {+-alpha, 0, 0, +-(T - beta)} (through s+, s2-, s2+ and s-:
    four paths), and a path at y with P +- tau + the same offsets.  Only
    non-anchor nodes are searched, so only they list their sides: per
    incident one-shot edge, the five near offsets and the shift (tau at
    y, 0 at x) that the far end adds with both signs.

    A path that reaches node x by edge e adds, at x, the exits of every
    other side of x, plus +-tau for each such side whose far end is an
    anchor.  That offset set and its charge (4 paths per side, 1 more per
    anchor side) are folded once per (x, e) on first use and shared by
    every start, so a visit is one sum of the partial sums with the
    offsets, one charge, and a walk over the non-anchor sides.  The
    charge of a visit is what the gadget form counts for those sides one
    at a time, so each start's total against ``PATH_CAP`` is the gadget
    form's, path for path.
    """

    def __init__(self, inner: TemporalNetwork, windows: dict, anchors: set):
        self.horizon = T = inner.horizon
        self.anchors = anchors
        # Per non-anchor node, per incident one-shot edge: (edge id, far endpoint,
        # tau, near exits, shift).  The gadget's exits from this end are the near
        # exits plus and minus the shift: tau at the edge's head, 0 at its tail.
        self.sides = sides = {n: [] for n in inner.nodes if n not in anchors}
        # One-shot edge ids, counted in to_one_shot's order.  The far end y is a
        # relay key (i, j, k) for every window of an edge after its first.
        eid = 0
        for (i, j), edge_windows in windows.items():
            for n, (k, a, b, _, tau) in enumerate(edge_windows):
                y = j if n == 0 else (i, j, k)
                near = (a, -a, 0, T - b, b - T)
                if i not in anchors:
                    sides[i].append((eid, y, tau, near, 0))
                if n == 0:
                    if j not in anchors:
                        sides[j].append((eid, i, tau, near, tau))
                    eid += 1
                else:
                    sides[y] = [(eid, i, tau, near, tau), (eid + 1, j, 0, (0,), 0)]
                    if j not in anchors:
                        sides[j].append((eid + 1, y, 0, (0,), 0))
                    eid += 2
        # Per (node, edge it arrived by; None at the start): the offsets a visit
        # adds to the path's partial sums, the paths it charges, and its steps
        # (edge id, far endpoint, weights +-tau) on to non-anchor nodes.
        self.folded: dict = {}

    def fold(self, node, arrived_by) -> tuple[set[int], int, list]:
        anchors = self.anchors
        offsets: set[int] = set()
        paths = 0
        steps = []
        for edge, far, tau, near, shift in self.sides[node]:
            if edge == arrived_by:  # its t+ and t- are on the path
                continue
            paths += 4
            if shift:
                offsets.update([w + d for w in near for d in (shift, -shift)])
            else:
                offsets.update(near)
            if far in anchors:
                paths += 1
                offsets.update((tau, -tau))
            else:
                steps.append((edge, far, (tau, -tau)))
        self.folded[node, arrived_by] = entry = (offsets, paths, steps)
        return entry

    def gamma(self, i) -> BreakpointSet:
        """Gamma*(i) within [0, T] of a searched node."""
        return _clip(_pin_sums(i, self.folded, self.fold), self.horizon)


class _Roles:
    """A network's live windows and which of its nodes are searched and settled.

    One pass over the windows finds the live edges; a node is searched
    when it is no anchor and heads one live edge and tails another, and
    settled when it is searched and no live edge joins it to another
    searched node.  No two settled nodes are adjacent.  The pin graph
    (``_WindowPins``) is built on the first ``gamma`` of an unsettled
    searched node, so a call whose searched nodes all settle builds none.
    """

    def __init__(self, net: TemporalNetwork | SuperTerminals):
        inner, windows, _ = inner_parts(net)
        self.inner, self.windows = inner, windows
        self.anchors = anchors = inner.sources | inner.sinks | {S_STAR, D_STAR}
        live = [edge for edge, edge_windows in windows.items() if edge_windows]
        # Anchors and nodes lacking an in- or an out-edge have Gamma = {0, T + 1}.
        self.searched = searched = ({j for _, j in live} & {i for i, _ in live}) - anchors
        unsettled = {
            n for edge in live if edge[0] in searched and edge[1] in searched for n in edge
        }
        self.settled = searched - unsettled
        self.pins: _WindowPins | None = None

    def gamma(self, i) -> BreakpointSet:
        """Gamma*(i) within [0, T]: (0,) for a node that is not searched."""
        if i not in self.searched:
            return (0,)
        if self.pins is None:
            self.pins = _WindowPins(self.inner, self.windows, self.anchors)
        return self.pins.gamma(i)

    def local(self) -> dict[str, BreakpointSet]:
        """Each settled node's set: 0 and its own windows' local points within [0, T].

        An out-window [a, b] gives a and b + 1, an in-window with travel
        time tau gives a + tau and b + tau + 1; b <= T - tau, so only
        T + 1 is ever past T.
        """
        settled = self.settled
        if not settled:
            return {}
        points = {n: {0} for n in settled}
        for (i, j), edge_windows in self.windows.items():
            if i in settled:
                add = points[i].add
                for _, a, b, _, _ in edge_windows:
                    add(a)
                    add(b + 1)
            if j in settled:
                add = points[j].add
                for _, a, b, _, tau in edge_windows:
                    add(a + tau)
                    add(b + tau + 1)
        past = self.inner.horizon + 1
        for pts in points.values():
            pts.discard(past)
        return {n: tuple(sorted(pts)) for n, pts in points.items()}


def gamma_breakpoints(
    net: TemporalNetwork | SuperTerminals, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """The gadget form's sets A_i = Gamma*(i) within [0, T] for original nodes.

    They are read off the network's windows, with no gadget form built
    (``_WindowPins``).  Wherever the gadget form can be built,
    ``EnumerationCapError`` is raised on exactly the same inputs as there,
    and the sets are the same.  No capacity and no node name enters a
    set, so every network is read, those the gadget form cannot represent
    (``gadget.check_gadget_reducible``) included.  ``tempoflow verify``
    and the tests check the verdict's sets against these.
    """
    roles = _Roles(net)
    return {i: roles.gamma(i) for i in nodes}


def settled_breakpoints(net: TemporalNetwork | SuperTerminals) -> dict[str, BreakpointSet]:
    """The settled nodes' sets: 0 and their own windows' local points within [0, T]."""
    return _Roles(net).local()


def cten_breakpoints(
    net: TemporalNetwork | SuperTerminals, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """The verdict's sets: local points on settled nodes, Gamma*(i) within [0, T] elsewhere.

    A settled node (``_Roles``) gets 0 and its own windows' local points
    within [0, T], with no pin-path search, so it never raises
    ``EnumerationCapError``; every other node gets its
    ``gamma_breakpoints`` set.  The pin graph is built only if some node
    is searched and not settled.  Each set lies within Gamma*(i), and the
    condensed expansion stays exact (``feasibility.feas``, point 5).
    """
    roles = _Roles(net)
    local = roles.local()
    return {i: local[i] if i in local else roles.gamma(i) for i in nodes}
