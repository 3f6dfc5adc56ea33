"""Combed graphs on braided surfaces.

A combed graph meets every 0-handle in combs (a vertical spine with
horizontal teeth, listed bottom to top) and isolated points, and every
1-handle in arcs parallel to its core.  A tooth's slot is its position on
its band's attaching arc, 0..r-1 from the bottom; it is the one statement
of where an arc end sits, and the order in which a disk lists its
components means nothing.

Each graph numbers its arc ends once (`_Ends`): every disk takes one block
of consecutive numbers, in boundary order (band height, slot).  It numbers
the nodes too: disk s's components, in listing order, from the count of
components on the disks before s, so a node is one integer (`_Ends.node`),
points and combs with no arc end included.  The table holds each end's
band, slot and node, each comb as a list of numbers (-1 for a free end),
each end's neighbours on the boundary, and the pairing: arcs through a
band pair slot p on the i side with slot r-1-p on the j side, since the
half-twist reverses the transverse order.  Each rule is stated once over
these numbers, and read both by the graph and by the working copy of the
Whitehead moves: the pairing, the face-tracing step at one arc end
(`_Ends.step`), the site test (`_Ends.is_site`) and the gap walk of
free-end reach (`_Ends.unreached`).  `CombedGraph.arcs` lists the pairing
by slot.  The face-tracing conventions below are validated against the
independent permutation-cycle boundary count by the self-calibration
suite, not assumed.

`validate` accepts only graphs that can be drawn in the disks.  It walks
the tooth objects once, in the walk that numbers the arc ends: that walk
records each component that is not a comb or a point, each empty comb and
each tooth that is neither a free end nor an arc end into a 1-handle
meeting its disk, and marks the disks that hold a free end (`loose`, which
`has_free_ends` reads).  Every later rule reads the numbers.  On a disk's
boundary the arc ends lie in (band height, slot) order; each comb
meets its arc ends in that order, and the arc ends of different combs form
a non-crossing partition of the boundary points (combs may nest).  Host
boundary lies between two neighboring arc ends into different bands, and
between the last arc end and the first; none lies between adjacent slots of
one attaching arc.  A free end must reach host boundary inside its face: the
face of the disk, cut by the combs, that the free end's tooth leaves from.
A free end between two arc ends of its comb lies in their gap; one below
the comb's first arc end or above its last lies in the gap the comb is
nested in, so validation charges it to that gap and walks each gap once.

A graph is *full* when its inclusion is pi_1-injective on each component.
The host retracts onto its handle graph H (a vertex per disk, an edge i to
j per band), and the graph Gamma maps onto H: a node to its disk, an arc
to its band.  Stallings folding decides injectivity (Stallings
1983, "Topology of finite graphs"; Kapovich and Myasnikov 2002, "Stallings
foldings and subgroups of free groups"): repeatedly identify two arcs
through one band that leave one node class on the same side.  A fold whose
far ends are distinct classes merges them and keeps E - V; a fold whose far
ends are already one class kills a cycle.  Folding never joins two
components, so Gamma is full exactly when folding keeps E - V unchanged.
For a graph that can be drawn, this agrees with "no vertex-simple cycle
bounds a disk on the host", the definition the brute-force oracle in
`selfcheck` checks arc subset by arc subset.

Face tracing walks the boundary of a regular neighborhood one step per
arc end: from x to the mate of the arc end before x in its comb,
cyclically (skipping teeth that end on the surface boundary).  Orbits of
this step are the boundary circles of components containing at least one
arc; arc-free components are disks.  One walker follows the step
(`_routes`): over the whole graph every walk closes, and
`SurfaceSummary.of_complex`, the one per-component count, reads the closed
walks as the circles of the complex of node numbers and arcs.  The
face-routing check of a Whitehead move is the same walker over the arc
ends whose step the move changes: where each entry leaves, and how many
walks close inside.

A `CombedGraph` is immutable: its fields are tuples of frozen objects, and
every edit builds a new graph.  So what a graph determines is worked out
once per instance, when first asked for, and kept on the instance: the
numbering (`_ends`), the `validate` problems, the `neighborhood_summary`
and fullness (`_full`, so `is_full` folds a graph at most once).

Whitehead moves are made on a private working copy (`_Working`), a mutable
copy of the numbering.  A reduction deletes arcs in pairs and never inserts
one, so the numbers serve as fixed order labels for the whole run: the
pairing stays a fixed table, two slots are adjacent when they are
neighbours in the linked list of a disk's live arc ends, and an output slot
is a rank, taken once, when the copy is frozen into a `CombedGraph`.  A
move unlinks one arc and merges the two far combs, re-tests sites only in
the two combs it changes, and checks itself over the teeth it changes
(`_Working.move` says why that suffices).  The face-tracing step changes
at three arc ends, so the boundary circles are kept when the tracing walk
routes every arc end entering those, the site's kept end and the two
removed ends to the same leaving one before and after the move, and closes
as many walks inside.  The free ends around the merged comb must be those
around the far comb not nested in the other, whose face the move keeps, so
only its gaps are walked.  With one arc and one comb gone, each component
keeps its chi, and a move keeps fullness too.  `whitehead_step`
is one move on a fresh copy, frozen, and its child takes the parent's
summary and fullness.  `reduce` makes all its moves on one copy, freezes it
once with nothing cached, and still validates, summarises and checks
fullness of its result against its input, so a local check that missed a
fault would show there.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

from .braidcore import BandRepresentation, UnionFind, free_reduction, fundamental_cycles, json_int
from .errors import InternalError, InvalidGraph, InvalidParameter, NotFull, SiteNotEligible
from .surface import BraidedSurface, SurfaceSummary


@dataclass(frozen=True)
class ArcEnd:
    """A tooth continuing into an arc through 1-handle `band`, at `slot`."""

    band: int
    slot: int


@dataclass(frozen=True)
class FreeEnd:
    """A tooth ending on the boundary of the host surface."""


@dataclass(frozen=True)
class Comb:
    """Teeth bottom to top; at least one."""

    teeth: tuple

    def __post_init__(self):
        object.__setattr__(self, "teeth", tuple(self.teeth))


@dataclass(frozen=True)
class IsolatedPoint:
    """A single point of the graph in the interior of a 0-handle."""


@dataclass(frozen=True)
class CombedGraph:
    """A combed graph; `disks[s-1]` lists disk s's components in any order."""

    host: BraidedSurface
    disks: tuple

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(tuple(comps) for comps in self.disks))

    # -- bookkeeping ------------------------------------------------------

    @cached_property
    def _ends(self) -> "_Ends":
        return _Ends(self)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))

    @cached_property
    def _summary(self) -> SurfaceSummary:
        _require_valid(self)
        return _trace_summary(self)

    @cached_property
    def _full(self) -> bool:
        """Whether the graph is pi_1-injective on each component, by folding.

        Folding identifies, at each node class, arcs through one band that
        leave it on the same side, and so merges their other ends.  It keeps
        E - V exactly when no fold identifies two arcs whose other ends were
        already one node, that is, when no cycle dies (see the module docstring).
        Nodes are the numbers of `_Ends.node`, so each node's star is an
        entry of a list.  A star is keyed by band alone: a node class lies on
        one disk, as each fold merges far ends on one disk, and a disk meets
        each band on one side.
        """
        _require_valid(self)
        stars: list[dict] = [{} for _ in range(self._ends.node_count)]  # node root -> {band: a neighbor}
        pending = []  # pairs of nodes that folding must merge
        arcs = _graph_arcs(self)
        for band, tail, head in arcs:
            if (seen := stars[tail].setdefault(band, head)) != head:
                pending.append((seen, head))
            if (seen := stars[head].setdefault(band, tail)) != tail:
                pending.append((seen, tail))
        sets = UnionFind(range(len(stars)))
        merges = 0
        while pending:
            x, y = pending.pop()
            rx, ry = sets.find(x), sets.find(y)
            if rx == ry:
                continue
            if len(stars[rx]) > len(stars[ry]):
                rx, ry = ry, rx
            sets.union(rx, ry)
            merges += 1
            into = stars[ry]
            for key, other in stars[rx].items():
                if (seen := into.setdefault(key, other)) != other:
                    pending.append((seen, other))
            stars[rx] = {}
        folded_arcs = sum(map(len, stars)) // 2
        return len(arcs) - folded_arcs == merges

    def arc_count(self, band: int) -> int:
        return len(self._ends.keys.get((band, "i"), ()))

    def total_arcs(self) -> int:
        return sum(len(ends) for (_band, side), ends in self._ends.keys.items() if side == "i")

    def has_free_ends(self) -> bool:
        return any(self._ends.loose)

    def arcs(self) -> list[tuple[int, int, int]]:
        """All arcs as (band, i-slot, j-slot), sorted; read off `_ends.mate`."""
        keys, mate = self._ends.keys, self._ends.mate
        return [
            (band, x - i_side.start, mate[x] - keys[(band, "j")].start)
            for band in range(1, self.host.band_count() + 1) if (i_side := keys.get((band, "i")))
            for x in i_side if mate[x] >= 0
        ]

    def to_json(self) -> dict:
        disks = []
        for comps in self.disks:
            doc = []
            for comp in comps:
                if isinstance(comp, IsolatedPoint):
                    doc.append({"point": True})
                else:
                    teeth = []
                    for tooth in comp.teeth:
                        if isinstance(tooth, FreeEnd):
                            teeth.append({"free_end": True})
                        else:
                            teeth.append({"arc_end": [tooth.band, tooth.slot]})
                    doc.append({"comb": teeth})
            disks.append(doc)
        return {
            "host": self.host.to_json(),
            "disks": disks,
            "arcs": [list(a) for a in self.arcs()],
        }

    @staticmethod
    def from_json(doc: dict) -> "CombedGraph":
        try:
            host = BraidedSurface(BandRepresentation.from_json(doc["host"]))
            disks = []
            for comps in doc["disks"]:
                row = []
                for comp in comps:
                    if comp.get("point"):
                        row.append(IsolatedPoint())
                    else:
                        teeth = []
                        for tooth in comp["comb"]:
                            if tooth.get("free_end"):
                                teeth.append(FreeEnd())
                            else:
                                band, slot = tooth["arc_end"]
                                teeth.append(ArcEnd(json_int(band), json_int(slot)))
                        row.append(Comb(tuple(teeth)))
                disks.append(tuple(row))
            graph = CombedGraph(host, tuple(disks))
            stated = sorted(tuple(map(json_int, arc)) for arc in doc["arcs"]) if "arcs" in doc else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidGraph(f"malformed combed graph document: {exc}") from exc
        _require_valid(graph)
        if stated is not None and stated != graph.arcs():
            raise InvalidGraph("stated arcs are not the order-reversing pairing of the teeth")
        return graph


# A tooth location: (disk, component index, tooth index), all 0-based except disk.
Location = tuple[int, int, int]


class _Ends:
    """The arc-end numbering of a combed graph, and the rules stated over it.

    Each disk numbers its arc ends in boundary order, (band height, slot),
    in one block of consecutive numbers; equal slots, which `validate`
    refuses, keep listing order, and teeth into a 1-handle that does not
    meet their disk take none.  Per arc end x:
    - `band[x]`, `slot[x]`, the slot its tooth states (`validate` checks
      it against x's rank), `disk[x]`, `comb[x]`, its comb's label, and
      `node[x]`, its comb's node number: the disk's offset, the count of
      components on the disks before it, plus the label;
    - `next[x]` and `prev[x]`, its neighbours on the disk's boundary, or -1;
    - `mate[x]`, the other end of its arc: of the r arc ends through a band,
      slot p on the i side pairs with slot r-1-p on the j side (-1 where
      the two sides' counts differ, which `validate` refuses);
    - `locs[x]`, its location (disk, component, tooth) in the graph.
    Per disk: `comps`, each comb as a list of numbers (-1 for a free end),
    by label, and a point as []; `labels`, the labels in listing order
    (here the component indices); `head`, its first arc end or -1; and
    `loose`, whether it holds a free end.  `keys` maps (band, side) to the
    range of its numbers, by slot; the nodes, one per component, are
    range(`node_count`).  `problems` lists, disk by disk, each component
    that is neither a comb nor a point, each empty comb, and each tooth
    that is neither a free end nor an arc end into a 1-handle meeting its
    disk: validation's one walk over the tooth objects.  Disks past the
    host's strand count get no numbers; `validate` refuses their graph
    first.  `_Working` is a mutable copy, without node numbers: a move
    merges combs, and only a graph's summary and folding read nodes.
    """

    def __init__(self, graph: CombedGraph):
        self.band: list[int] = []
        self.slot: list[int] = []
        self.disk: list[int] = []
        self.comb: list[int] = []
        self.node: list[int] = []
        self.locs: list[Location] = []
        self.next: list[int] = []
        self.prev: list[int] = []
        self.head: list[int] = []
        self.comps: list = []
        self.labels: list[list[int]] = []
        self.loose: list[bool] = []
        self.keys: dict[tuple[int, str], range] = {}
        self.problems: list[str] = []
        self.node_count = 0
        host, k = graph.host, graph.host.band_count()
        for disk, (comps, row) in enumerate(zip_longest(graph.disks, host.incidence, fillvalue={}), start=1):
            combs, loose = [], False
            found: dict[int, list] = {band: [] for band in row}  # band -> (slot, component, tooth) of each arc end
            for ci, comp in enumerate(comps):
                teeth = comp.teeth if isinstance(comp, Comb) else ()
                combs.append([-1] * len(teeth))
                if not isinstance(comp, (Comb, IsolatedPoint)):
                    self.problems.append(f"disk {disk} component {ci} is not a comb or point")
                elif isinstance(comp, Comb) and not teeth:
                    self.problems.append(f"disk {disk} component {ci} is an empty comb")
                for ti, tooth in enumerate(teeth):
                    if isinstance(tooth, ArcEnd) and 1 <= tooth.band <= k and tooth.band in row:
                        found[tooth.band].append((tooth.slot, ci, ti))
                    elif isinstance(tooth, FreeEnd):
                        loose = True
                    elif not isinstance(tooth, ArcEnd):
                        self.problems.append(f"disk {disk} component {ci} tooth {ti} has unknown type")
                    elif not 1 <= tooth.band <= k:
                        self.problems.append(f"tooth references 1-handle {tooth.band} outside 1..{k}")
                    else:
                        band = host.bands[tooth.band - 1]
                        self.problems.append(f"disk {disk} tooth enters 1-handle {tooth.band} "
                                             f"joining {band.i},{band.j}")
            first = len(self.band)
            for band, side in row.items():
                if here := found[band]:
                    self.keys[(band, side)] = range(len(self.band), len(self.band) + len(here))
                    here.sort()
                    for slot, ci, ti in here:
                        combs[ci][ti] = len(self.band)
                        self.band.append(band)
                        self.slot.append(slot)
                        self.comb.append(ci)
                        self.locs.append((disk, ci, ti))
            last = len(self.band)
            self.disk += [disk] * (last - first)
            self.node += [self.node_count + ci for ci in self.comb[first:last]]
            self.next.extend([*range(first + 1, last), -1][: last - first])
            self.prev.extend([-1, *range(first, last - 1)][: last - first])
            self.head.append(first if last > first else -1)
            self.comps.append(combs)
            self.labels.append(list(range(len(combs))))
            self.loose.append(loose)
            self.node_count += len(combs)
        self.mate = [-1] * len(self.band)
        for band in range(1, k + 1):
            i_side, j_side = self.keys.get((band, "i"), ()), self.keys.get((band, "j"), ())
            if len(i_side) == len(j_side):
                for x, y in zip(i_side, reversed(j_side)):
                    self.mate[x], self.mate[y] = y, x

    def step(self, teeth, k: int) -> int:
        """The face-tracing step at teeth[k], an arc end of a comb: the mate of the arc end before it, cyclically."""
        return self.mate[_pred_at(teeth, k)]

    def is_site(self, teeth, ti: int) -> bool:
        """Whether teeth ti and ti+1 of a comb are arc ends at adjacent slots of one attaching arc."""
        if not 0 <= ti < len(teeth) - 1:
            return False
        x, y = teeth[ti], teeth[ti + 1]
        return x >= 0 and y >= 0 and self.next[x] == y and self.band[x] == self.band[y]

    def sites(self) -> list[Site]:
        return [
            Site(disk, rank, ti)
            for disk, (combs, labels) in enumerate(zip(self.comps, self.labels), start=1)
            for rank, label in enumerate(labels)
            for ti in range(len(combs[label]) - 1) if self.is_site(combs[label], ti)
        ]

    def unreached(self, disk: int, teeth):
        """Each gap (k, m) of a comb on `disk` that holds a free end out of reach of host boundary.

        The gap between consecutive arc ends teeth[k] and teeth[m] holds the
        free ends between them, and those around the combs nested in it
        directly.  It meets host boundary where two arc ends next to each
        other on its stretch of boundary, stepping over the combs nested in
        it, enter different bands.  This is the one gap walk of free-end
        reach: `validate` runs it on every comb, a Whitehead move on the
        comb it merges.
        """
        comps, nxt, band, comb = self.comps[disk - 1], self.next, self.band, self.comb
        ends = [k for k, x in enumerate(teeth) if x >= 0]
        for k, m in zip(ends, ends[1:]):
            p, loose = teeth[k], m > k + 1  # whether the gap holds a free end, so far
            while (q := nxt[p]) >= 0 and band[q] == band[p] and q != teeth[m]:
                inner = comps[comb[q]]  # nested in the gap: step over it
                loose = loose or inner[0] < 0 or inner[-1] < 0
                p = _pred_at(inner, 0)
            if q < 0:
                raise InternalError("a gap of a comb runs past the last arc end of its disk")
            if loose and band[q] == band[p]:
                yield k, m


def validate(graph: CombedGraph) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    return list(graph._problems)


def _find_problems(graph: CombedGraph) -> list[str]:
    """The disk count; else the tooth problems; else each band's arc-end count problems, then the first drawing problem.

    Of the drawing problems, the first in the order of one pass over the
    bands, i side before j side, is reported: each disk's walk keeps its
    own state, so that is the least (band, side) at which a disk's walk
    stops.  A free end out of reach of the host boundary comes after every
    other drawing problem.
    """
    host = graph.host
    if len(graph.disks) != host.strands:
        return [f"graph lists {len(graph.disks)} disks for a {host.strands}-strand host"]
    problems = list(graph._ends.problems)
    if problems:
        return problems
    disks = range(1, host.strands + 1)
    keys = graph._ends.keys
    for band in range(1, host.band_count() + 1):
        i_side, j_side = keys.get((band, "i"), ()), keys.get((band, "j"), ())
        if len(i_side) != len(j_side):
            problems.append(
                f"1-handle {band} has {len(i_side)} arc ends on the i side, {len(j_side)} on the j side"
            )
    found = [problem for disk in disks if (problem := _drawing_problem(graph, disk))]
    found = found or [problem for disk in disks if (problem := _reach_problem(graph, disk))]
    if found:
        problems.append(min(found)[-1])
    return problems


def _drawing_problem(graph: CombedGraph, disk: int) -> tuple | None:
    """Why the combs of one disk cannot be drawn, free ends aside, or None if they can.

    Returns (band, side rank, message), the (band, side) where the walk
    found it.  The arc ends entering one attaching arc must hold slots
    0..r-1, each once.  On a disk's boundary the arc ends lie in (band
    height, slot) order.  A comb must meet its arc ends in that order,
    bottom to top, and no two combs may cross: their arc ends form a
    non-crossing partition of the boundary points, so one comb may nest
    between two teeth of another.  One walk along the boundary keeps a stack
    of the combs met but not finished.
    """
    ends = graph._ends
    comps = ends.comps[disk - 1]
    stack: list[int] = []  # combs met but not finished
    gaps: dict[int, list] = {}  # comb -> [tooth after its last arc end met, its last arc end's number]
    for key in graph.host.incidence[disk - 1].items():
        band, side = key
        where = (band, 0 if side == "i" else 1)
        for slot, x in enumerate(ends.keys.get(key, ())):
            _disk, ci, ti = ends.locs[x]
            teeth = comps[ci]
            if ends.slot[x] != slot:
                slots = [ends.slot[y] for y in ends.keys[key]]
                want = f"expected 0..{len(slots) - 1} each once"
                return (*where, f"1-handle {band} {side}-side slots are {slots}, {want}")
            gap = gaps.get(ci)
            first = gap[0] if gap else 0
            if ti != first:
                if first and ends.band[teeth[first - 1]] == band:
                    return (*where, f"disk {disk} component {ci}: teeth into 1-handle {band} are not consecutive")
                if ti != _next_at(teeth, first - 1)[1]:
                    return (*where, f"disk {disk} component {ci}: teeth are out of (1-handle, slot) order")
            if gap is None:
                gap = gaps[ci] = [0, _pred_at(teeth, 0)]
                stack.append(ci)
            elif stack[-1] != ci:
                return (*where, f"disk {disk}: components {stack[-1]} and {ci} cross on the disk boundary")
            gap[0] = ti + 1
            if x == gap[1]:
                stack.pop()
    return None


def _reach_problem(graph: CombedGraph, disk: int) -> tuple | None:
    """The first free end on a disk that `_drawing_problem` accepts and that cannot reach host boundary.

    Returns (band, side rank, message) at the arc end that closes its gap,
    the first such in boundary order, or None.  Free ends take no position,
    so only their face matters (see `_Ends.unreached`).  A free end below a
    comb's first arc end or above its last lies in the gap the comb is
    nested in, and is charged to that gap; the face that holds the first
    and last boundary points, around the outermost combs, always meets host
    boundary.  Each gap is walked once, stepping over the combs nested in it
    directly, so the walk is linear in the size of the disk.
    """
    ends = graph._ends
    if not ends.loose[disk - 1]:
        return None
    found = [
        (teeth[m], k, m, ci)
        for ci, teeth in enumerate(ends.comps[disk - 1])
        for k, m in ends.unreached(disk, teeth)
    ]
    if not found:
        return None
    y, k, m, ci = min(found)
    side = graph.host.incidence[disk - 1][ends.band[y]]
    return (ends.band[y], 0 if side == "i" else 1, f"disk {disk}: a free end between arc ends {k} and {m} "
            f"of component {ci}, or of a comb they enclose, cannot reach the host boundary")


def _require_valid(graph: CombedGraph):
    problems = validate(graph)
    if problems:
        raise InvalidGraph("; ".join(problems))


# ---------------------------------------------------------------------------
# Regular-neighborhood summaries (ribbon-graph face tracing)


def _graph_arcs(graph: CombedGraph) -> list[tuple[int, int, int]]:
    """Every arc as (band, i-side node, j-side node), by band and slot; nodes are numbers (`_Ends.node`)."""
    ends = graph._ends
    node, mate = ends.node, ends.mate
    return [
        (band, node[x], node[mate[x]])
        for band in range(1, graph.host.band_count() + 1)
        for x in ends.keys.get((band, "i"), ())
    ]


def neighborhood_summary(graph: CombedGraph) -> SurfaceSummary:
    """Homeomorphism type of a regular neighborhood of the graph."""
    return graph._summary


def _trace_summary(graph: CombedGraph) -> SurfaceSummary:
    """Boundary circles per component: the orbits of the face-tracing step, one token per arc end.

    Why one token suffices.  Trace the boundary with two tokens per arc end
    x: A(x), about to run along x's arc, and B(x), just arrived by it and
    about to turn inside x's comb.  A(x) goes to B(mate[x]), and B(y) to
    A(pred(y)), where pred(y) is the previous arc end of y's comb,
    cyclically.  The orbits of this map are the boundary circles.  They
    alternate A and B, so each holds a B token, and its B tokens make up
    one orbit of the return map B(y) -> B(mate[pred(y)]), which is the
    step (`_Ends.step`, read at each arc end of each comb).  Distinct
    orbits hold disjoint B tokens, so the boundary circles and the orbits
    of the step correspond one to one.  (The A tokens' return map
    pred . mate equals mate . step . mate, conjugate to the step by the
    involution mate, so it has as many orbits.)  No step leaves a
    component, so the count holds per component: `SurfaceSummary.of_complex`
    counts on the node numbers (`_Ends.node`), each orbit as the nodes of
    its arc ends, and each point or comb with no arc end is a node with no
    edge, a disk.
    """
    ends = graph._ends
    node = ends.node
    step = {x: ends.step(teeth, k) for combs in ends.comps for teeth in combs for k, x in enumerate(teeth) if x >= 0}
    orbits = [[node[x] for x in walk] for walk in _routes(step)[1]]
    edges = [(tail, head) for _band, tail, head in _graph_arcs(graph)]
    return SurfaceSummary.of_complex(range(ends.node_count), edges, orbits)


# ---------------------------------------------------------------------------
# Fullness by Stallings folding


def _host_spanning_tree(host: BraidedSurface) -> set[int]:
    """Band heights forming the spanning forest of the handle graph."""
    forest, _cycles = fundamental_cycles([(band.i, band.j) for band in host.bands])
    return {pos + 1 for pos in forest}


def _cyclic_reduce(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """`free_reduction`, then cancellation of inverse letters at the two ends."""
    reduced = free_reduction(word)
    start, stop = 0, len(reduced)
    while stop - start >= 2 and reduced[start] == (reduced[stop - 1][0], -reduced[stop - 1][1]):
        start, stop = start + 1, stop - 1
    return reduced[start:stop]


def cycle_words(graph: CombedGraph) -> list[list[tuple[int, int]]]:
    """Cyclically reduced word, over co-tree 1-handles, of each fundamental cycle.

    One cycle per arc outside a spanning forest of the graph: that arc, i to
    j, then the forest path back.  Letters are (band height, sign); the
    words are the images of a free basis of the graph's fundamental group in
    the host's, which is free on the co-tree bands of its handle graph.
    """
    _require_valid(graph)
    host_tree = _host_spanning_tree(graph.host)
    arcs = _graph_arcs(graph)
    _forest, cycles = fundamental_cycles([(tail, head) for _band, tail, head in arcs])
    return [
        _cyclic_reduce([(arcs[e][0], sign) for e, sign in cycle if arcs[e][0] not in host_tree])
        for cycle in cycles
    ]


def is_full(graph: CombedGraph) -> bool:
    """True iff the graph is pi_1-injective on each component; folded once per graph (`CombedGraph._full`)."""
    return graph._full


# ---------------------------------------------------------------------------
# Whitehead moves


@dataclass(frozen=True)
class Site:
    """A move site: teeth (tooth, tooth+1) of one comb, entering one band."""

    disk: int
    component: int
    tooth: int

    def __post_init__(self):
        if type(self.disk) is not int or type(self.component) is not int or type(self.tooth) is not int:
            raise InvalidParameter(f"site ({self.disk!r}, {self.component!r}, {self.tooth!r}) must hold three integers")

    def to_json(self):
        return [self.disk, self.component, self.tooth]


def _merge_far_combs(a: list, ta: int, b: list, tb: int) -> list:
    """The comb that far combs A (kept end at ta) and B (removed end at tb) become, as arc-end numbers.

    The move slides B's tooth at the removed end along the attaching arc
    onto A's tooth at the kept end, just above it.  So going around the
    merged comb, the teeth come in this cyclic order: B's below the removed
    end, A's from the kept end on, A's below the kept end, B's above the
    removed end.  Every free end stays in its face.  The listing starts in
    the face around the merged comb, where one of the two combs started:
    with A's teeth below the kept end if there are some and the removed end
    is B's last arc end (B nests in a gap of A, or the two are stacked),
    else with B's teeth below the removed end.  Without free ends this is A
    up to the kept end, B up to the removed end, then the rest of A and of B.
    """
    if ta and max(b[tb + 1 :], default=-1) < 0:
        return a[:ta] + b[tb + 1 :] + b[:tb] + a[ta:]
    return b[:tb] + a[ta:] + a[:ta] + b[tb + 1 :]


def _pred_at(teeth, pos: int) -> int:
    """The arc end before position `pos` of a comb, cyclically; at 0, its last arc end."""
    k = pos - 1
    while teeth[k] < 0:
        k -= 1
    return teeth[k]


def _next_at(teeth, pos: int) -> tuple[int, int]:
    """The arc end after position `pos` of a comb, cyclically, and its position; at -1, its first arc end."""
    k = (pos + 1) % len(teeth)
    while teeth[k] < 0:
        k = (k + 1) % len(teeth)
    return teeth[k], k


def _free_around(teeth) -> int:
    """How many free ends lie around a comb: below its first arc end and above its last."""
    ends = [k for k, x in enumerate(teeth) if x >= 0]
    return ends[0] + len(teeth) - 1 - ends[-1]


def _routes(step: Mapping) -> tuple[dict, list[list[int]]]:
    """How the walk `step` crosses its key set: each entry to its exit, and the walks closed inside.

    An entry is a key that no key steps to, so the walk reaches it from
    outside; `step` is one-to-one, so every other key lies on a walk from an
    entry or on a closed walk.  Each closed walk lists its keys, from the
    first in `step`'s order.  The one orbit walker: a Whitehead move routes
    the step over the arc ends it changes, and the face tracing of a whole
    graph, where every walk closes, reads the closed walks as its orbits.
    """
    hit = set(step.values())
    routes, seen = {}, set()
    for start in step:
        if start in hit:
            continue
        x = start
        while x in step:
            seen.add(x)
            x = step[x]
        routes[start] = x
    closed = []
    for x in step:
        if x not in seen:
            walk = []
            while x not in seen:
                seen.add(x)
                walk.append(x)
                x = step[x]
            closed.append(walk)
    return routes, closed


class _Working(_Ends):
    """A mutable copy of a valid graph's numbering (`_Ends`), on which Whitehead moves are made.

    A reduction deletes arcs, two ends at a time, and never inserts one, so
    the numbers serve as fixed order labels for the whole run:
    - boundary order on a disk is number order;
    - `mate` stays a fixed table: the input's order-reversing pairing stays
      order-reversing on the arcs that survive;
    - two arc ends are adjacent slots when they are neighbours, on one band,
      in the disk's doubly linked list of live arc ends (`next`, `prev`);
    - an output slot is the rank of an arc end among the live ones of its
      (band, side), computed once, by `freeze`.

    A component's label is its input index, so listing order is label order
    (`labels` holds the live ones per disk), and `comps` maps each live
    label to its comb.  `freeze` rebuilds the disks a change touched and
    reuses the others.
    """

    def __init__(self, graph: CombedGraph):
        _require_valid(graph)
        ends = graph._ends
        self.graph = graph
        self.band, self.disk, self.mate, self.loose = ends.band, ends.disk, ends.mate, ends.loose
        self.comb, self.next, self.prev, self.head = list(ends.comb), list(ends.next), list(ends.prev), list(ends.head)
        self.comps = [dict(enumerate(map(list, combs))) for combs in ends.comps]
        self.labels = [list(labels) for labels in ends.labels]
        self.touched: set[int] = set()
        self.queue = [  # sorted, so a heap
            (disk, ci)
            for disk, combs in enumerate(self.comps, start=1)
            for ci, teeth in combs.items() if len(teeth) > 1
        ]
        self.queued = set(self.queue)

    # -- sites --------------------------------------------------------------

    def _enqueue(self, disk: int, label: int) -> None:
        key = (disk, label)
        if key not in self.queued and len(self.comps[disk - 1].get(label, ())) > 1:
            self.queued.add(key)
            heapq.heappush(self.queue, key)

    def least_site(self) -> tuple[int, int, int] | None:
        """The least site by (disk, component, tooth), as (disk, label, tooth), or None.

        Every comb that holds a site is queued: a move makes new sites only in
        the two combs it changes (see `move`), and it queues both.
        """
        while self.queue:
            disk, label = self.queue[0]
            teeth = self.comps[disk - 1].get(label, ())
            for ti in range(len(teeth) - 1):
                if self.is_site(teeth, ti):
                    return disk, label, ti
            heapq.heappop(self.queue)
            self.queued.discard((disk, label))
        return None

    def reduce(self) -> list[Site]:
        """Moves at the least site until none remains; their sites, as the graph listed each."""
        trace: list[Site] = []
        limit = len(self.band) // 2
        while (found := self.least_site()) is not None:
            if len(trace) >= limit:
                raise InternalError("reduction took more steps than the graph has arcs")
            disk, label, ti = found
            trace.append(Site(disk, bisect_left(self.labels[disk - 1], label), ti))
            self.move(disk, label, ti)
        return trace

    # -- edits --------------------------------------------------------------

    def _unlink(self, x: int) -> None:
        """Take arc end x out of its disk's boundary list."""
        p, q = self.prev[x], self.next[x]
        if p >= 0:
            self.next[p] = q
        else:
            self.head[self.disk[x] - 1] = q
        if q >= 0:
            self.prev[q] = p

    def replace(self, disk: int, items: Mapping) -> None:
        """Put each item at its live label on `disk`: a comb's list, or None to remove it.

        A reduction never adds a label: a move puts the merged comb at a far
        comb's label, and dropping a leaf only removes one.
        """
        comps, labels, comb = self.comps[disk - 1], self.labels[disk - 1], self.comb
        for label, teeth in items.items():
            if teeth is None:
                del comps[label]
                del labels[bisect_left(labels, label)]
                continue
            comps[label] = teeth
            for x in teeth:
                if x >= 0:
                    comb[x] = label
        self.touched.add(disk)

    def move(self, disk: int, label: int, ti: int) -> None:
        """One Whitehead move at the site (ti, ti+1) of comb `label` on `disk`.

        With t, u the site's teeth, a = mate[t] and b = mate[u] the far ends of
        the kept and the removed arc, and A, B their combs: the near comb
        loses u, and A and B become `_merge_far_combs`'s comb M, at the lower
        of their two labels.  Each per-step check is stated over the teeth
        the move changes, and the comments say why that suffices:
        (1) the site test (`is_site`, by the caller); (2) distinct far combs;
        (3) arcs and components each one fewer; (4) face routing where the
        step changes; (5) the kept arc still joins the merged comb; (6)
        drawing, and free-end reach in M's gaps and around M.
        """
        mate, comb, nxt, step = self.mate, self.comb, self.next, self.step
        near = self.comps[disk - 1][label]
        t, u = near[ti], near[ti + 1]
        a, b = mate[t], mate[u]
        far = self.disk[a]
        comps = self.comps[far - 1]
        a_label, b_label = comb[a], comb[b]
        # (2) Two parallel arcs whose far ends share a comb bound a bigon.
        if a_label == b_label:
            raise SiteNotEligible("far ends share a comb; the merge would close a cycle")
        a_comb, b_comb = comps[a_label], comps[b_label]
        # (6) Non-crossing.  u is the neighbour of t on the near boundary, so
        # b is the neighbour of a on the far one: the pairing reverses order,
        # so b lies directly below a.  Merging two blocks of a non-crossing
        # partition at adjacent points keeps it non-crossing: a block C
        # crossing M would separate a point of A from a point of B, and a, b
        # lie on one side of C, so C would cross A or B.  Dropping a point
        # keeps it non-crossing too, so no other comb can cross M or the
        # near comb.
        if nxt[b] != a:
            raise InternalError("far ends of a site are not adjacent on the disk boundary")
        ta, tb = a_comb.index(a), b_comb.index(b)
        merged = _merge_far_combs(a_comb, ta, b_comb, tb)
        # (3) and (6) M holds the teeth of A and B but b, its arc ends in
        # boundary order (number order).  The near comb loses u by
        # construction, and keeps its order: a subsequence of an ordered one.
        ends = [x for x in merged if x >= 0]
        kept = sorted([x for x in a_comb + b_comb if x >= 0 and x != b])
        if len(merged) != len(a_comb) + len(b_comb) - 1 or ends != kept and sorted(ends) != kept:
            raise InternalError("Whitehead move did not drop the arc count by one")
        if ends != kept:
            raise InternalError("Whitehead move made a comb that meets its arc ends out of boundary order")
        # (4) The face-tracing step (`step`) maps x to mate[pred(x)], pred
        # the arc end before x in its comb, cyclically.  The move drops u and
        # b, and changes pred only at w, the arc end after u in the near comb
        # (pred u, then t), at a (pred_A(a), then pred_B(b)) and at nb, the
        # arc end after b in B (pred b, then pred_A(a)).  So the boundary
        # circles are kept when the walk crosses {t, u, w, a, b, nb} before,
        # and {t, w, a, nb} less b after, alike: each entry to the same exit,
        # as many walks closed inside.  Before, w -> b -> W(b) and nb -> u ->
        # a -> W(a); after, w -> a -> W(b) and nb -> W(a), with W(x) =
        # mate[pred(x)] before.  Before the move it is read at the positions
        # found here; after it, from the combs the labels name, so a stale
        # label fails.
        w, kw = _next_at(near, ti + 1)
        nb, kb = _next_at(b_comb, tb)
        routes, closed = _routes({t: step(near, ti), u: step(near, ti + 1), w: step(near, kw),
                                  a: step(a_comb, ta), b: step(b_comb, tb), nb: step(b_comb, kb)})
        count = len(self.labels[far - 1])
        del near[ti + 1]
        self._unlink(u)
        self._unlink(b)
        low, high = sorted((a_label, b_label))
        self.replace(far, {low: merged, high: None})
        if len(self.labels[far - 1]) != count - 1:
            raise InternalError("Whitehead move did not drop the component count by one")
        after, closed_after = _routes(self._stored_steps((t, w, a) if nb == b else (t, w, a, nb)))
        if after != routes or len(closed_after) != len(closed):
            raise InternalError("Whitehead move changed the neighborhood summary")
        # (5) The region was one piece; it stays one if the kept arc joins the
        # near comb to M.  With one arc and one comb gone, chi is kept.
        if comb[a] != low:
            raise InternalError("Whitehead move did not keep the site's comb joined to the merged comb")
        # (6) Free ends.  The near comb loses u, which shares no face with a
        # free end: t and u are neighbours in the comb and on the boundary, so
        # nothing lies between them.  On the far disk the move joins B to A
        # across the stretch of boundary from b to a, which holds no other
        # point and no host boundary, and drops b's tooth.  So only faces at
        # that stretch change: the sliver between the join and the stretch
        # leaves its face for the face beyond b's tooth, taking no host
        # boundary and no comb along.  Every face keeps its host boundary and
        # every comb but M its face, so only M's free ends are checked again:
        # in its gaps by the gap walk; around it by count, as the face around
        # M is that around A if b is B's last arc end, around B if a is A's
        # first (one face if both), and the reach of its free ends was settled.
        if self.loose[far - 1]:
            teeth = comps[low]
            around = _free_around(a_comb) * (kb <= tb) + _free_around(b_comb) * (_next_at(a_comb, -1)[1] == ta)
            if any(self.unreached(far, teeth)) or _free_around(teeth) != around:
                raise InternalError("Whitehead move made a comb that cannot be drawn: a free end left its face")
        self.touched.add(disk)
        # a new site needs a new pair of neighbours in a comb or on the
        # boundary: (t, the tooth after u) in the near comb, (the arc end below
        # b, a) and the splice points in M, so only these two combs can gain one
        self._enqueue(disk, label)
        self._enqueue(far, low)

    def _stored_steps(self, ends) -> dict[int, int]:
        """The face-tracing step (`step`) at each arc end of `ends`, read from the comb its label names."""
        comps, disk, comb, found = self.comps, self.disk, self.comb, {}
        for x in ends:
            teeth = comps[disk[x] - 1].get(comb[x], ())
            try:
                k = teeth.index(x)
            except ValueError:
                raise InternalError("Whitehead move changed the neighborhood summary: "
                                    "an arc end is not in the comb its label names") from None
            found[x] = self.step(teeth, k)
        return found

    def drop_leaves(self, disks) -> bool:
        """Drop each one-tooth comb on `disks`, with its arc and the tooth at its far end.

        Such a comb and its arc are a leaf of the graph, so dropping them is
        an isotopy of the regular neighborhood, and keeps fullness: one node
        and one arc fewer in one component, and one boundary circle passes
        the arc no more.  A far comb left with no tooth becomes a point.
        Returns whether anything was dropped.
        """
        dropped = False
        for disk in disks:
            for label in list(self.comps[disk - 1]):
                teeth = self.comps[disk - 1].get(label, ())
                if len(teeth) != 1 or teeth[0] < 0:
                    continue
                e = teeth[0]
                f = self.mate[e]
                far, f_label = self.disk[f], self.comb[f]
                f_comb = self.comps[far - 1][f_label]
                del f_comb[f_comb.index(f)]
                self.replace(disk, {label: None})
                self.replace(far, {})  # emptied, f_comb is a point
                for x in (e, f):  # its neighbours become adjacent
                    p = self.prev[x]
                    self._unlink(x)
                    if p >= 0:
                        self._enqueue(self.disk[p], self.comb[p])
                self._enqueue(far, f_label)
                dropped = True
        return dropped

    def freeze(self, **cached) -> CombedGraph:
        """The graph as it stands, taking `cached` values; touched disks are rebuilt, the others reused."""
        disks = list(self.graph.disks)
        for disk in sorted(self.touched):
            slot: dict[int, int] = {}
            count: dict[int, int] = {}
            x = self.head[disk - 1]
            while x >= 0:
                slot[x] = count.get(self.band[x], 0)
                count[self.band[x]] = slot[x] + 1
                x = self.next[x]
            comps = self.comps[disk - 1]
            disks[disk - 1] = tuple(
                Comb(tuple(ArcEnd(self.band[x], slot[x]) if x >= 0 else FreeEnd() for x in teeth))
                if teeth else IsolatedPoint()
                for teeth in map(comps.__getitem__, self.labels[disk - 1])
            )
        result = CombedGraph(self.graph.host, tuple(disks))
        result.__dict__.update(cached)  # the cached properties' values, as their first use would store them
        return result


def eligible_sites(graph: CombedGraph) -> list[Site]:
    """Sites where consecutive teeth of a comb hold adjacent slots of one attaching arc."""
    _require_valid(graph)
    return graph._ends.sites()


def whitehead_step(graph: CombedGraph, site: Site) -> CombedGraph:
    """One Whitehead move: two parallel arcs become one, far combs merge.

    The far end of the removed arc lies directly below the far end of the
    kept one, and combs do not cross, so one far comb sits in a gap of the
    other or the two are stacked: either the kept end is the first arc end
    of its comb A, or the removed end is the last arc end of its comb B.
    The merged comb (`_merge_far_combs`) is listed where the lower-listed
    of A and B was.  Preserves the regular-neighborhood summary and
    fullness; drops the arc count by exactly one.  The move is the one
    `reduce` makes, on a working copy of the graph, with its checks (see
    `_Working.move`).  The graph must be full (NotFull otherwise);
    fullness is cached per graph, and the child takes both the summary and
    fullness from its parent, so a chain of moves folds only the graph it
    starts from.
    """
    work = _Working(graph)
    comps = work.comps[site.disk - 1] if 1 <= site.disk <= len(work.comps) else {}
    if not work.is_site(comps.get(site.component, ()), site.tooth):  # a label is the input's index
        raise SiteNotEligible(
            f"no eligible site at {site}: teeth {site.tooth} and {site.tooth + 1} of a comb must hold "
            f"adjacent slots of one 1-handle"
        )
    if not is_full(graph):
        raise NotFull("Whitehead moves require a full graph")
    work.move(site.disk, site.component, site.tooth)
    return work.freeze(_problems=(), _summary=graph._summary, _full=True)


def reduce(graph: CombedGraph) -> CombedGraph:
    """Apply Whitehead moves at the least eligible site until none remains."""
    return reduce_with_trace(graph)[0]


def reduce_with_trace(graph: CombedGraph) -> tuple[CombedGraph, list[Site]]:
    """`reduce`, and the sites of its moves in order."""
    return _reduced(graph, ())


def _reduced(graph: CombedGraph, leaves) -> tuple[CombedGraph, list[Site]]:
    """`reduce_with_trace`, also dropping the one-tooth combs on the disks `leaves` (`_Working.drop_leaves`).

    Moves and drops alternate until neither a site nor such a comb is left.
    All of them are made on one working copy, frozen once; the steps are
    checked locally, with the face-tracing step (`_Ends.step`) read at the
    few arc ends each move changes, and the result, frozen with nothing
    cached, is validated, summarised and folded afresh.  So a reduction
    that changes the graph numbers, traces and folds twice whatever its
    length: its input and its result.
    """
    if not is_full(graph):
        raise NotFull("reduce requires a full graph")
    summary = neighborhood_summary(graph)
    work = _Working(graph)
    trace = work.reduce()
    while work.drop_leaves(leaves):
        trace += work.reduce()
    if not work.touched:
        return graph, trace
    result = work.freeze()
    if validate(result) or neighborhood_summary(result) != summary or not is_full(result):
        raise InternalError("Whitehead reduction lost validity, the neighborhood summary or fullness")
    return result, trace
