"""Combed graphs on braided surfaces.

A combed graph meets every 0-handle in combs (a vertical spine with
horizontal teeth, listed bottom to top) and isolated points, and every
1-handle in arcs parallel to its core.  A tooth's slot is its position on
its band's attaching arc, 0..r-1 from the bottom; it is the one statement
of where an arc end sits, and the order in which a disk lists its
components means nothing.  Arcs through a band pair slot p on the i side
with slot r-1-p on the j side: the half-twist reverses the transverse order.
`CombedGraph.mate` is the one statement of this pairing that the package
reads (`arcs` only lists it by slot for the JSON document).  The
face-tracing conventions below are validated against the independent
permutation-cycle boundary count by the self-calibration suite, not
assumed.

`validate` accepts only graphs that can be drawn in the disks.  On a
disk's boundary the arc ends lie in (band height, slot) order; each comb
meets its arc ends in that order, and the arc ends of different combs form
a non-crossing partition of the boundary points (combs may nest).  Host
boundary lies between two neighboring arc ends into different bands, and
between the last arc end and the first; none lies between adjacent slots of
one attaching arc.  A free end must reach host boundary inside its face: the
face of the disk, cut by the combs, that the free end's tooth leaves from.

A graph is *full* when its inclusion is pi_1-injective on each component.
The host retracts onto its handle graph H (a vertex per disk, an edge i to
j per band), and the graph Gamma maps onto H: a node (disk, comp) to its
disk, an arc to its band.  Stallings folding decides injectivity (Stallings
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
arc end (`_walk`): inside the arc end's comb it drops one tooth cyclically
(skipping teeth that end on the surface boundary), then it jumps through
the band to the paired arc end.  Orbits of this step are the boundary
circles of components containing at least one arc; arc-free components
are disks.  `SurfaceSummary.of_complex`, the one per-component count, reads
the orbits as the circles of the complex of nodes and arcs.  The face-routing
check of a Whitehead move is the same walk restricted to a region.

A `CombedGraph` is immutable: its fields are tuples of frozen objects, and
every edit builds a new graph.  So what a graph determines is worked out
once per instance, when first asked for, and kept on the instance: the
arc-end index (`arc_ends`, read by `arc_count`, `total_arcs`, `arcs`,
`mate`, the edits and the working copy), the `validate` problems, the
`neighborhood_summary` and fullness (`_full`, so `is_full` folds a graph
at most once).  `mate` is a lookup, not a table: the far end of the arc at
slot p of r is entry r-1-p of the other side's index.

The samplers double arcs with `edit_band`: it replaces components on the
two disks one band joins, reusing every other disk's row, renumbers that
band's arc ends by one rule, by old slot on each disk, and validates the
result.  Each disk reads only its own row, so validation is linear in the
size of the document.

Whitehead moves are made on a private working copy (`_Working`).  A
reduction deletes arcs in pairs and never inserts one, so the copy numbers
each disk's input arc ends once, in boundary order, and the numbers serve
as fixed order labels for the whole run: the pairing is a fixed table, two
slots are adjacent when they are neighbours in a linked list of a disk's
live arc ends, and an output slot is a rank, taken once, when the copy is
frozen into a `CombedGraph`.  A move unlinks one arc and merges the two far
combs, re-tests sites only in the two combs it changes, and checks itself
over the teeth it changes (`_Working.move` says why that suffices).  Face
tracing changes only at three arc ends of the comb of the site and the two
far combs, so the boundary circles are kept when the tracing walk routes
every arc end entering that region to the same leaving one before and
after the move, and closes as many walks inside.  With one arc and one comb
gone, each component keeps its chi, and a move keeps fullness too.
`whitehead_step` is one move on a fresh copy, frozen, and its child takes
the parent's summary and fullness.  `reduce` makes all its moves on one
copy, freezes it once, and still validates, summarises and checks fullness
of a fresh copy of its result against its input, so a local check that
missed a fault would show there.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .braidcore import BandRepresentation, UnionFind, fundamental_cycles, json_int
from .errors import InternalError, InvalidGraph, NotFull, SiteNotEligible
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
    def arc_ends(self) -> MappingProxyType:
        """Per (band, side) the arc-end locations in slot order (bottom to top).

        Equal slots, which `validate` refuses, keep listing order.  Teeth
        naming a 1-handle that does not meet their disk in the host's
        `incidence` table are left out; `validate` reports them.  So each
        key (band, side) lives on the one disk whose incidence row holds it.
        """
        index: dict[tuple[int, str], tuple[Location, ...]] = {}
        for disk, (comps, row) in enumerate(zip(self.disks, self.host.incidence), start=1):
            index.update(_disk_arc_ends(row, disk, comps))
        return MappingProxyType(index)

    @cached_property
    def mate(self) -> "Pairing":
        """Each arc-end location to the location at the other end of its arc.

        The pairing rule: of the r arc ends through a band, the one at slot p
        on the i side meets the one at slot r-1-p on the j side (the
        half-twist reverses the transverse order).  Looked up in `arc_ends`;
        meaningful only on a graph that `validate` accepts.
        """
        return Pairing(self.host.incidence, self.disks, self.arc_ends)

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
        """
        _require_valid(self)
        stars: dict = {}  # node root -> {(band, +1 at the i end, -1 at the j end): a neighbor}
        pending = []      # pairs of nodes that folding must merge
        arcs = _graph_arcs(self)
        for band, tail, head in arcs:
            for node, key, other in ((tail, (band, 1), head), (head, (band, -1), tail)):
                star = stars.setdefault(node, {})
                if key in star:
                    pending.append((star[key], other))
                else:
                    star[key] = other
        sets = UnionFind(stars)
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
            for key, other in stars.pop(rx).items():
                if key in into:
                    pending.append((into[key], other))
                else:
                    into[key] = other
        folded_arcs = sum(len(star) for star in stars.values()) // 2
        return len(arcs) - folded_arcs == merges

    def arc_count(self, band: int) -> int:
        return len(self.arc_ends.get((band, "i"), ()))

    def total_arcs(self) -> int:
        return sum(len(locs) for (_band, side), locs in self.arc_ends.items() if side == "i")

    def has_free_ends(self) -> bool:
        teeth = (x for comps in self.disks for comp in comps if isinstance(comp, Comb) for x in comp.teeth)
        return any(isinstance(x, FreeEnd) for x in teeth)

    def arcs(self) -> list[tuple[int, int, int]]:
        """All arcs as (band, i-slot, j-slot), sorted."""
        out = []
        for band in range(1, self.host.band_count() + 1):
            r = self.arc_count(band)
            out.extend((band, p, r - 1 - p) for p in range(r))
        return out

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
            stated = sorted(tuple(json_int(x) for x in arc) for arc in doc["arcs"]) if "arcs" in doc else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidGraph(f"malformed combed graph document: {exc}") from exc
        _require_valid(graph)
        if stated is not None and stated != graph.arcs():
            raise InvalidGraph("stated arcs are not the order-reversing pairing of the teeth")
        return graph


# A tooth location: (disk, component index, tooth index), all 0-based except disk.
Location = tuple[int, int, int]


def _disk_arc_ends(row, disk: int, comps) -> dict[tuple[int, str], tuple[Location, ...]]:
    """The `arc_ends` entries of one disk, its incidence `row`: its (band, side) keys, each in slot order."""
    index: dict[tuple[int, str], list[Location]] = {}
    slots: dict[tuple[int, str], list[int]] = {}  # of each list found out of slot order
    for ci, comp in enumerate(comps):
        if not isinstance(comp, Comb):
            continue
        for ti, tooth in enumerate(comp.teeth):
            if isinstance(tooth, ArcEnd) and (side := row.get(tooth.band)):
                key = (tooth.band, side)
                locs = index.setdefault(key, [])
                if key in slots or tooth.slot != len(locs):  # in order, the slots so far are 0..len-1
                    slots.setdefault(key, [*range(len(locs))]).append(tooth.slot)
                locs.append((disk, ci, ti))
    for key, found in slots.items():  # equal slots sort by listing position
        index[key] = [loc for _slot, loc in sorted(zip(found, index[key]))]
    return {key: tuple(locs) for key, locs in index.items()}


_FAR_SIDE = {"i": "j", "j": "i"}


class Pairing(Mapping):
    """`CombedGraph.mate`: the far end of an arc, looked up, never tabulated.

    The arc at slot p of the r arc ends on one side of a band ends at entry
    r-1-p of the other side's `arc_ends` list.
    """

    def __init__(self, incidence, disks, index):
        self._incidence, self._disks, self._index = incidence, disks, index

    def __getitem__(self, loc: Location) -> Location:
        disk, ci, ti = loc
        try:
            tooth = self._disks[disk - 1][ci].teeth[ti] if min(disk - 1, ci, ti) >= 0 else None
            far = self._index[(tooth.band, _FAR_SIDE[self._incidence[disk - 1][tooth.band]])]
        except (IndexError, AttributeError, KeyError):  # no tooth there, a free end, or no arc
            raise KeyError(loc) from None
        if not 0 <= tooth.slot < len(far):
            raise KeyError(loc)
        return far[len(far) - 1 - tooth.slot]

    def __iter__(self):
        for locs in self._index.values():
            yield from locs

    def __len__(self) -> int:
        return sum(len(locs) for locs in self._index.values())


def validate(graph: CombedGraph) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    return list(graph._problems)


def _find_problems(graph: CombedGraph) -> list[str]:
    """Tooth problems; else the arc-end count problems of each band, then the first drawing problem.

    Of the drawing problems, the first in the order of one pass over the
    bands, i side before j side, is reported: each disk's walk keeps its
    own state, so that is the least (band, side) at which a disk's walk
    stops.  A free end out of reach of the host boundary comes after every
    other drawing problem.
    """
    host = graph.host
    if len(graph.disks) != host.strands:
        return [f"graph lists {len(graph.disks)} disks for a {host.strands}-strand host"]
    disks = range(1, host.strands + 1)
    problems = [p for disk in disks for p in _tooth_problems(host, disk, enumerate(graph.disks[disk - 1]))]
    if problems:
        return problems
    index = graph.arc_ends
    for band in range(1, host.band_count() + 1):
        i_side, j_side = index.get((band, "i"), ()), index.get((band, "j"), ())
        if len(i_side) != len(j_side):
            problems.append(
                f"1-handle {band} has {len(i_side)} arc ends on the i side, {len(j_side)} on the j side"
            )
    found = [problem for disk in disks if (problem := _drawing_problem(graph, disk))]
    if found:
        problems.append(min(found)[-1])
    return problems


def _tooth_problems(host: BraidedSurface, disk: int, components) -> list[str]:
    """Of (index, component) pairs on one disk, those not combs or points, and teeth off the disk."""
    problems = []
    k = host.band_count()
    row = host.incidence[disk - 1]
    for ci, comp in components:
        if isinstance(comp, IsolatedPoint):
            continue
        if not isinstance(comp, Comb):
            problems.append(f"disk {disk} component {ci} is not a comb or point")
            continue
        if not comp.teeth:
            problems.append(f"disk {disk} component {ci} is an empty comb")
        for ti, tooth in enumerate(comp.teeth):
            if isinstance(tooth, FreeEnd):
                continue
            if not isinstance(tooth, ArcEnd):
                problems.append(f"disk {disk} component {ci} tooth {ti} has unknown type")
                continue
            if not 1 <= tooth.band <= k:
                problems.append(f"tooth references 1-handle {tooth.band} outside 1..{k}")
                continue
            if tooth.band not in row:
                band = host.bands[tooth.band - 1]
                problems.append(
                    f"disk {disk} tooth enters 1-handle {tooth.band} joining {band.i},{band.j}"
                )
    return problems


def _drawing_problem(graph: CombedGraph, disk: int) -> tuple | None:
    """Why the combs of one disk cannot be drawn, or None if they can.

    Returns (rank, band, side rank, message): rank 0 for a drawing fault,
    1 for a free end out of reach, and the (band, side) where the walk
    found it.  The arc ends entering one attaching arc must hold slots
    0..r-1, each once.  On a disk's boundary the arc ends lie in (band
    height, slot) order.  A comb must meet its arc ends in that order,
    bottom to top, and no two combs may cross: their arc ends form a
    non-crossing partition of the boundary points, so one comb may nest
    between two teeth of another.  One walk along the boundary keeps a stack
    of the combs met but not finished.

    Free ends take no position, so a free end can reach any host boundary
    of its face, and only its face matters.  The face of a free end between
    two arc ends of a comb is the gap between them: the boundary stretches
    from one neighboring arc end to the next that the walk passes while the
    comb is on top of the stack.  A free end below a comb's first arc end
    or above its last lies in the face around the comb: the gap of the comb
    below it on the stack, or the face that holds the first and last
    boundary points, which always meets host boundary.  A comb with no arc
    end sits in that face too.  A stretch meets host boundary when its two
    arc ends enter different bands.
    """
    comps = graph.disks[disk - 1]
    index = graph.arc_ends
    stack: list[int] = []  # combs met but not finished
    # comb -> [tooth after its last arc end met, its last arc end,
    #          its open gap meets host boundary, a nested comb's free end lies in that gap]
    gaps: dict[int, list] = {}
    previous = None  # band of the last arc end met
    out_of_reach = None
    for key in graph.host.incidence[disk - 1].items():
        band, side = key
        locs = index.get(key)
        if not locs:
            continue
        where = (band, 0 if side == "i" else 1)
        for slot, (_disk, ci, ti) in enumerate(locs):
            teeth = comps[ci].teeth
            if teeth[ti].slot != slot:
                slots = [graph.disks[d - 1][c].teeth[t].slot for d, c, t in locs]
                want = f"expected 0..{len(locs) - 1} each once"
                return (0, *where, f"1-handle {band} {side}-side slots are {slots}, {want}")
            if stack and previous != band:
                gaps[stack[-1]][2] = True
            previous = band
            gap = gaps.get(ci)
            first = gap[0] if gap else 0
            if ti != first:
                if first and teeth[first - 1].band == band:
                    return (0, *where, f"disk {disk} component {ci}: teeth into 1-handle {band} are not consecutive")
                expected = first
                while not isinstance(teeth[expected], ArcEnd):
                    expected += 1
                if ti != expected:
                    return (0, *where, f"disk {disk} component {ci}: teeth are out of (1-handle, slot) order")
            if gap is None:
                end = len(teeth) - 1
                while not isinstance(teeth[end], ArcEnd):
                    end -= 1
                if stack and (ti > 0 or end < len(teeth) - 1):  # free ends in the gap around it
                    gaps[stack[-1]][3] = True
                gap = gaps[ci] = [0, end, False, False]
                stack.append(ci)
            elif stack[-1] != ci:
                return (0, *where, f"disk {disk}: components {stack[-1]} and {ci} cross on the disk boundary")
            else:
                if (ti > first or gap[3]) and not gap[2] and out_of_reach is None:
                    out_of_reach = (1, *where, f"disk {disk}: a free end between arc ends {first - 1} and {ti} "
                                               f"of component {ci}, or of a comb they enclose, cannot reach "
                                               f"the host boundary")
                gap[2] = gap[3] = False
            gap[0] = ti + 1
            if ti == gap[1]:
                stack.pop()
    return out_of_reach


def _require_valid(graph: CombedGraph):
    problems = validate(graph)
    if problems:
        raise InvalidGraph("; ".join(problems))


# ---------------------------------------------------------------------------
# Regular-neighborhood summaries (ribbon-graph face tracing)


def _graph_arcs(graph: CombedGraph) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """Every arc as (band, i-side node, j-side node); nodes are (disk, comp)."""
    index, mate = graph.arc_ends, graph.mate
    return [
        (band, loc[:2], mate[loc][:2])
        for band in range(1, graph.host.band_count() + 1)
        for loc in index.get((band, "i"), ())
    ]


def neighborhood_summary(graph: CombedGraph) -> SurfaceSummary:
    """Homeomorphism type of a regular neighborhood of the graph."""
    return graph._summary


def _walk(mate, disks, loc: Location) -> Location:
    """One step of the face-tracing walk: the comb's previous arc end, cyclically, then its mate."""
    disk, ci, ti = loc
    teeth = disks[disk - 1][ci].teeth
    step = ti - 1  # teeth[-1] is the top tooth
    while not isinstance(teeth[step], ArcEnd):
        step -= 1
    return mate[(disk, ci, step % len(teeth))]


def _trace_summary(graph: CombedGraph) -> SurfaceSummary:
    """Boundary circles per component: the orbits of `_walk`, one token per arc end.

    Why one token suffices.  Trace the boundary with two tokens per arc end
    x: A(x), about to run along x's arc, and B(x), just arrived by it and
    about to turn inside x's comb.  A(x) goes to B(mate[x]), and B(y) to
    A(pred(y)), where pred(y) is the previous arc end of y's comb,
    cyclically.  The orbits of this map are the boundary circles.  They
    alternate A and B, so each holds a B token, and its B tokens make up
    one orbit of the return map B(y) -> B(mate[pred(y)]), which is `_walk`.
    Distinct orbits hold disjoint B tokens, so the boundary circles and the
    orbits of `_walk` correspond one to one.  (The A tokens' return map
    pred . mate equals mate . `_walk` . mate, conjugate to `_walk` by the
    involution mate, so it has as many orbits.)  No step leaves a
    component, so the count holds per component.
    """
    mate, disks = graph.mate, graph.disks
    orbits = []
    seen: set[Location] = set()
    for start in mate:
        if start in seen:
            continue
        orbit = []
        loc = start
        while loc not in seen:
            seen.add(loc)
            orbit.append(loc[:2])
            loc = _walk(mate, disks, loc)
        orbits.append(orbit)
    nodes = [(disk, ci) for disk, comps in enumerate(disks, start=1) for ci in range(len(comps))]
    return SurfaceSummary.of_complex(nodes, [(tail, head) for _band, tail, head in _graph_arcs(graph)], orbits)


# ---------------------------------------------------------------------------
# Fullness by Stallings folding


def _host_spanning_tree(host: BraidedSurface) -> set[int]:
    """Band heights forming the spanning forest of the handle graph."""
    forest, _cycles = fundamental_cycles([(band.i, band.j) for band in host.bands])
    return {pos + 1 for pos in forest}


def _cyclic_reduce(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Free reduction, then cancellation of inverse letters at the two ends."""
    stack: list[tuple[int, int]] = []
    for letter in word:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    while len(stack) >= 2 and stack[0][0] == stack[-1][0] and stack[0][1] == -stack[-1][1]:
        stack = stack[1:-1]
    return stack


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
# The doubling edit


def _inherit(graph: CombedGraph, **cached) -> None:
    """Store values of a new graph's cached properties, as their first use would."""
    graph.__dict__.update(cached)


def edit_band(graph: CombedGraph, band: int, replace: dict) -> CombedGraph:
    """Replace components on the disks `band` joins; renumber its arc ends.

    `replace` maps (disk, component index) of the parent graph to the
    components that take its place: none removes it, two split it.  The one
    renumbering rule: on each of its two disks the arc ends of `band` take
    slots 0, 1, ... in order of (old slot, listing position), so the copies
    of a doubled end, listed bottom to top, stay in that order.  Rows of
    other disks are reused as they are.  The samplers double arcs with it.
    An edit whose result fails `validate` is a bug in the caller, so it
    raises InternalError.
    """
    _require_valid(graph)
    hostband = graph.host.bands[band - 1]
    disks = list(graph.disks)
    for disk in (hostband.i, hostband.j):
        row = []
        for ci, comp in enumerate(graph.disks[disk - 1]):
            row.extend(replace.get((disk, ci), (comp,)))
        ends = sorted(
            (tooth.slot, ci, ti)
            for ci, item in enumerate(row) if isinstance(item, Comb)
            for ti, tooth in enumerate(item.teeth) if isinstance(tooth, ArcEnd) and tooth.band == band
        )
        renumbered: dict[int, list] = {}
        for slot, (_old, ci, ti) in enumerate(ends):
            renumbered.setdefault(ci, list(row[ci].teeth))[ti] = ArcEnd(band, slot)
        for ci, teeth in renumbered.items():
            row[ci] = Comb(tuple(teeth))
        disks[disk - 1] = tuple(row)
    result = CombedGraph(graph.host, tuple(disks))
    problems = validate(result)
    if problems:
        raise InternalError(f"edit of band {band} produced an invalid graph: {problems}")
    return result


# ---------------------------------------------------------------------------
# Whitehead moves


@dataclass(frozen=True)
class Site:
    """A move site: teeth (tooth, tooth+1) of one comb, entering one band."""

    disk: int
    component: int
    tooth: int

    def to_json(self):
        return [self.disk, self.component, self.tooth]


def _merge_far_combs(a: tuple, ta: int, b: tuple, tb: int) -> Comb:
    """The comb that far combs A (kept end at ta) and B (removed end at tb) become.

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
    if ta and not any(isinstance(tooth, ArcEnd) for tooth in b[tb + 1 :]):
        return Comb(a[:ta] + b[tb + 1 :] + b[:tb] + a[ta:])
    return Comb(b[:tb] + a[ta:] + a[:ta] + b[tb + 1 :])


_FREE = FreeEnd()


def _pred_at(teeth, pos: int) -> int:
    """The arc end before position `pos` of a comb, cyclically, as `_walk` steps; at 0, its last arc end."""
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


def _cyclic_preds(teeth) -> dict[int, int]:
    """Each arc end of a comb to the one before it, cyclically."""
    ends = [x for x in teeth if x >= 0]
    return dict(zip(ends, ends[-1:] + ends[:-1]))


def _routes(step: Mapping) -> tuple[dict, int]:
    """How the walk `step` crosses its key set: each entry to its exit, and the walks closed inside.

    An entry is a key that no key steps to, so the walk reaches it from
    outside; `step` is one-to-one, so every other key lies on a walk from an
    entry or on a closed walk.
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
    closed = 0
    for x in step:
        if x not in seen:
            closed += 1
            while x not in seen:
                seen.add(x)
                x = step[x]
    return routes, closed


class _Working:
    """A mutable copy of a valid combed graph, on which Whitehead moves are made.

    Each disk numbers its arc ends in boundary order, (band height, slot), in
    one block of consecutive numbers.  A reduction deletes arcs, two ends at
    a time, and never inserts one, so the numbers serve as fixed order
    labels for the whole run:
    - boundary order on a disk is number order;
    - `mate` is a fixed table: the input's order-reversing pairing stays
      order-reversing on the arcs that survive;
    - two arc ends are adjacent slots when they are neighbours, on one band,
      in the disk's doubly linked list of live arc ends (`next`, `prev`);
    - an output slot is the rank of an arc end among the live ones of its
      (band, side), computed once, by `freeze`.

    A component's label is its input index, so listing order is label order
    (`labels` holds the live ones per disk).  A comb is a list of arc-end
    numbers, -1 for a free end; a point is ().  `freeze` rebuilds the disks a
    change touched and reuses the others.
    """

    def __init__(self, graph: CombedGraph):
        _require_valid(graph)
        self.graph = graph
        index = graph.arc_ends
        self.band: list[int] = []
        self.disk: list[int] = []
        self.comb: list[int] = []        # the label of the comb holding the arc end
        self.tooth: list[ArcEnd] = []    # the input's tooth: its slot is its number less its band's base
        self.next: list[int] = []
        self.prev: list[int] = []
        self.head: list[int] = []        # per disk, its first live arc end, or -1
        self.base: list[dict] = []       # per disk, band -> the number of its slot 0 there
        self.comps: list[dict] = []      # per disk, label -> comb or point
        self.labels: list[list[int]] = []
        self.loose: list[bool] = []      # per disk, whether it holds a free end
        for disk, (row, comps) in enumerate(zip(graph.host.incidence, graph.disks), start=1):
            first = len(self.band)
            combs = {ci: [-1] * len(comp.teeth) if isinstance(comp, Comb) else () for ci, comp in enumerate(comps)}
            bases = {}
            for key in row.items():
                bases[key[0]] = len(self.band)
                for _disk, ci, ti in index.get(key, ()):
                    combs[ci][ti] = len(self.band)
                    self.band.append(key[0])
                    self.disk.append(disk)
                    self.comb.append(ci)
                    self.tooth.append(comps[ci].teeth[ti])
            last = len(self.band)
            self.next.extend([*range(first + 1, last), -1][: last - first])
            self.prev.extend([-1, *range(first, last - 1)][: last - first])
            self.head.append(first if last > first else -1)
            self.base.append(bases)
            self.comps.append(combs)
            self.labels.append(list(combs))
            self.loose.append(any(-1 in teeth for teeth in combs.values()))
        self.mate = [0] * len(self.band)
        for t, hostband in enumerate(graph.host.bands, start=1):
            r = len(index.get((t, "i"), ()))
            i_base, j_base = self.base[hostband.i - 1][t], self.base[hostband.j - 1][t]
            for p in range(r):
                self.mate[i_base + p], self.mate[j_base + r - 1 - p] = j_base + r - 1 - p, i_base + p
        self.touched: set[int] = set()
        self.queue = [  # sorted, so a heap
            (disk, ci)
            for disk, combs in enumerate(self.comps, start=1)
            for ci, teeth in combs.items() if len(teeth) > 1
        ]
        self.queued = set(self.queue)

    # -- sites --------------------------------------------------------------

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
        """Put each item at its label on `disk`: a comb's list, () for a point, or None to remove it."""
        comps, labels, comb = self.comps[disk - 1], self.labels[disk - 1], self.comb
        for label, teeth in items.items():
            if teeth is None:
                del comps[label]
                del labels[bisect_left(labels, label)]
                continue
            if label not in comps:
                insort(labels, label)
            comps[label] = teeth
            for x in teeth:
                if x >= 0:
                    comb[x] = label
        self.touched.add(disk)

    def _merged(self, far: int, a_comb: list, ta: int, b_comb: list, tb: int) -> list:
        """`_merge_far_combs` on two far combs, as a list of arc-end numbers."""
        tooth = self.tooth
        merged = _merge_far_combs(
            tuple(tooth[x] if x >= 0 else _FREE for x in a_comb), ta,
            tuple(tooth[x] if x >= 0 else _FREE for x in b_comb), tb,
        )
        bases = self.base[far - 1]
        try:
            return [bases[x.band] + x.slot if isinstance(x, ArcEnd) else -1 for x in merged.teeth]
        except KeyError:
            raise InternalError("Whitehead move merged an arc end of another disk") from None

    def move(self, disk: int, label: int, ti: int) -> None:
        """One Whitehead move at the site (ti, ti+1) of comb `label` on `disk`.

        With t, u the site's teeth, a = mate[t] and b = mate[u] the far ends of
        the kept and the removed arc, and A, B their combs: the near comb
        loses u, and A and B become `_merge_far_combs`'s comb M, at the lower
        of their two labels.  Each per-step check is stated over the teeth
        the move changes, and the comments say why that suffices:
        (1) the site test (`is_site`, by the caller); (2) distinct far combs;
        (3) arcs and components each one fewer; (4) face routing; (5) the
        kept arc still joins the merged comb; (6) drawing and free-end reach.
        """
        mate, comb, nxt = self.mate, self.comb, self.next
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
        merged = self._merged(far, a_comb, a_comb.index(a), b_comb, b_comb.index(b))
        # (3) and (6) M holds the teeth of A and B but b, its arc ends in
        # boundary order (number order).  The near comb loses u by
        # construction, and keeps its order: a subsequence of an ordered one.
        ends = [x for x in merged if x >= 0]
        kept = sorted(x for x in a_comb + b_comb if x >= 0 and x != b)
        if len(merged) != len(a_comb) + len(b_comb) - 1 or sorted(ends) != kept:
            raise InternalError("Whitehead move did not drop the arc count by one")
        if ends != kept:
            raise InternalError("Whitehead move made a comb that meets its arc ends out of boundary order")
        # (4) Face tracing steps W(x) = mate[pred(x)], pred the arc end before
        # x in its comb, cyclically.  The move changes pred only at w (the arc
        # end after u in the near comb: pred u, then t), at a and at the arc
        # end after b in B, and drops u and b.  So every step outside the
        # region R = {t, u, w} + A + B is kept, and the boundary circles are
        # kept exactly when the walk crosses R as before: each entry to the
        # same exit, as many walks closed inside, with R less u and b after.
        # Before, w -> b -> W(b) and (after b) -> u -> a -> W(a); after,
        # w -> a -> W(b) and (after b) -> W(a): the same routes.
        w, at = _next_at(near, ti + 1)
        preds = _cyclic_preds(a_comb) | _cyclic_preds(b_comb)
        preds.update({t: _pred_at(near, ti), u: t, w: u})
        before = _routes({x: mate[p] for x, p in preds.items()})
        count = len(self.labels[far - 1])
        del near[ti + 1]
        self._unlink(u)
        self._unlink(b)
        low, high = sorted((a_label, b_label))
        self.replace(far, {low: merged, high: None})
        if len(self.labels[far - 1]) != count - 1:
            raise InternalError("Whitehead move did not drop the component count by one")
        preds = {}
        for k in {comb[x] for x in a_comb + b_comb if x >= 0 and x != b}:
            preds |= _cyclic_preds(comps.get(k, ()))
        preds.update({t: _pred_at(near, ti), w: _pred_at(near, at - (at > ti + 1))})
        if _routes({x: mate[p] for x, p in preds.items()}) != before:
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
        # every comb but M its face, so only M's free ends are checked again.
        if self.loose[far - 1] and (problem := self._free_end_problem(far, low)):
            raise InternalError(f"Whitehead move made a comb that cannot be drawn: {problem}")
        self.touched.add(disk)
        # a new site needs a new pair of neighbours in a comb or on the
        # boundary: (t, the tooth after u) in the near comb, (the arc end below
        # b, a) and the splice points in M, so only these two combs can gain one
        self._enqueue(disk, label)
        self._enqueue(far, low)

    def _free_end_problem(self, disk: int, label: int) -> str | None:
        """Why a free end of comb `label`, or around a comb nested in it, cannot be drawn; None if none.

        `_drawing_problem`'s rules for one comb: no free end between two arc
        ends into one band; a free end in a gap, or around a comb nested in
        it, reaches host boundary there; a free end around the comb reaches
        it in the face around the comb.
        """
        teeth = self.comps[disk - 1][label]
        band = self.band
        ends = [k for k, x in enumerate(teeth) if x >= 0]
        for k, m in zip(ends, ends[1:]):
            if m > k + 1 and band[teeth[k]] == band[teeth[m]]:
                return "a free end lies between two arc ends into one 1-handle"
            reach, nested = self._gap(disk, teeth[k], teeth[m])
            if not reach and (m > k + 1 or nested):
                return "a free end in a gap of the comb cannot reach the host boundary"
        if (teeth[0] < 0 or teeth[-1] < 0) and not self._around(disk, teeth[ends[0]]):
            return "a free end around the comb cannot reach the host boundary"
        return None

    def _gap(self, disk: int, x: int, y: int) -> tuple[bool, bool]:
        """Of the gap between consecutive arc ends x < y of a comb: whether it meets host boundary, and
        (as far as the walk went) whether a comb nested in it has a free end around it.

        The gap meets host boundary where two arc ends next to each other on
        its stretch of boundary, stepping over the combs nested in it, enter
        different bands, as in `_drawing_problem`.
        """
        comps, nxt, band, comb = self.comps[disk - 1], self.next, self.band, self.comb
        nested = False
        p = x
        while True:
            q = nxt[p]
            if q < 0:
                raise InternalError("a gap of a comb runs past the last arc end of its disk")
            if band[q] != band[p]:
                return True, nested
            if q == y:
                return False, nested
            inner = comps[comb[q]]
            nested = nested or inner[0] < 0 or inner[-1] < 0
            p = _pred_at(inner, 0)

    def _around(self, disk: int, first: int) -> bool:
        """Whether the face around the comb whose first arc end is `first` meets host boundary."""
        comps, comb = self.comps[disk - 1], self.comb
        p = self.prev[first]
        while p >= 0:
            teeth = comps[comb[p]]
            if p == _pred_at(teeth, 0):  # p is the last arc end of a comb beside this one: step over it
                p = self.prev[_next_at(teeth, -1)[0]]
                continue
            y, _k = _next_at(teeth, teeth.index(p))  # p's comb holds this one in the gap above p
            return self._gap(disk, p, y)[0]
        return True  # the face that holds the first and last boundary points

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
                self.replace(far, {} if f_comb else {f_label: ()})
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
                Comb(tuple(ArcEnd(self.band[x], slot[x]) if x >= 0 else _FREE for x in teeth))
                if teeth else IsolatedPoint()
                for teeth in map(comps.__getitem__, self.labels[disk - 1])
            )
        result = CombedGraph(self.graph.host, tuple(disks))
        _inherit(result, **cached)
        return result


def eligible_sites(graph: CombedGraph) -> list[Site]:
    """Sites where consecutive teeth of a comb hold adjacent slots of one attaching arc."""
    return _Working(graph).sites()


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
    checked locally, and a fresh copy of the result is validated,
    summarised and folded again.  So a reduction that changes the graph
    folds twice whatever its length: its input and that copy.
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
    fresh = CombedGraph(result.host, result.disks)
    if validate(fresh) or neighborhood_summary(fresh) != summary or not is_full(fresh):
        raise InternalError("Whitehead reduction lost validity, the neighborhood summary or fullness")
    _inherit(result, _problems=(), _summary=summary, _full=True)
    return result, trace
