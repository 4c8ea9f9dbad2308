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
The expansion reads A_i = Gamma*(i) within [0, T] and nothing more: 0 is
in every Gamma*(i), and a cut time of T + 1 needs no interval start.  So
anchors and nodes lacking an in- or an out-edge, whose Gamma is
{0, T + 1}, get the one point 0: one vertex over [0, T].

The verdict needs the sets of the original nodes only, and those are read
straight off the temporal network (``cten_breakpoints``): each edge's
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
sets with, lives in ``gadget``.  Its pin graph and this reader each
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


def cten_breakpoints(
    net: TemporalNetwork | SuperTerminals, nodes: tuple[str, ...]
) -> dict[str, BreakpointSet]:
    """The gadget form's sets A_i = Gamma*(i) within [0, T] for original nodes.

    They are read off the network's windows, with no gadget form built.

    ``nodes`` are nodes of ``net`` or s*/d*, never gadget nodes (so never
    pseudo-pseudosinks: Gamma* is Gamma).  Each edge's stored live
    windows (``inner_parts``) are the edges ``gadget.to_one_shot`` splits it
    into: the first joins the edge's endpoints, and each further one runs
    to an implicit relay node, keyed by the tuple (i, j, k), whose
    always-open zero-length edge leads on to j.  A one-shot edge x -> y
    with window [alpha, beta] and travel time tau is one undirected step
    of weight plus or minus tau between x and y.  A path at x with
    partial sums P also reaches the gadget's anchors with
    P + {+-alpha, 0, 0, +-(T - beta)} (through s+, s2-, s2+ and s-: four
    paths), and a path at y with P +- tau + the same offsets.  Only
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
    form's, path for path: wherever the gadget form can be built,
    ``EnumerationCapError`` is raised on exactly the same inputs and the
    sets are the same.  No capacity and no node name enters a set, so
    every network is read, those the gadget form cannot represent
    (``gadget.check_gadget_reducible``) included.
    """
    net, windows, _ = inner_parts(net)
    T = net.horizon
    anchors = net.sources | net.sinks | {S_STAR, D_STAR}
    # Per non-anchor node, per incident one-shot edge: (edge id, far endpoint,
    # tau, near exits, shift).  The gadget's exits from this end are the near
    # exits plus and minus the shift: tau at the edge's head, 0 at its tail.
    sides: dict = {n: [] for n in net.nodes if n not in anchors}
    heads, tails = set(), set()
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
        if edge_windows:
            tails.add(i)
            heads.add(j)

    # Per (node, edge it arrived by; None at the start): the offsets a visit
    # adds to the path's partial sums, the paths it charges, and its steps
    # (edge id, far endpoint, weights +-tau) on to non-anchor nodes.
    folded: dict = {}

    def fold(node, arrived_by) -> tuple[set[int], int, list]:
        offsets: set[int] = set()
        paths = 0
        steps = []
        for edge, far, tau, near, shift in sides[node]:
            if edge == arrived_by:  # its t+ and t- are on the path
                continue
            paths += 4
            offsets.update([w + d for w in near for d in (shift, -shift)])
            if far in anchors:
                paths += 1
                offsets.update((tau, -tau))
            else:
                steps.append((edge, far, (tau, -tau)))
        folded[node, arrived_by] = entry = (offsets, paths, steps)
        return entry

    # Anchors and nodes lacking an in- or an out-edge have Gamma = {0, T + 1}.
    searched = (heads & tails) - anchors
    return {i: _clip(_pin_sums(i, folded, fold), T) if i in searched else (0,) for i in nodes}
