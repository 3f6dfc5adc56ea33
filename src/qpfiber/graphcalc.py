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
the orbits as the circles of the complex of nodes and arcs.  `_routing`, the
local check of a Whitehead move, is the same walk restricted to a region.

A `CombedGraph` is immutable: its fields are tuples of frozen objects, and
every edit builds a new graph.  So what a graph determines is worked out
once per instance, when first asked for, and kept on the instance: the
arc-end index (`arc_ends`, read by `arc_count`, `total_arcs`, `arcs`,
`mate` and every edit), the `validate` problems, the `neighborhood_summary`
and fullness (`_full`, so `is_full` folds a graph at most once).  `mate` is
a lookup, not a table: the far end of the arc at slot p of r is entry r-1-p
of the other side's index.

Every edit goes through `edit_band`: it replaces components on the two
disks one band joins, reusing every other disk's row, renumbers that band's
arc ends by one rule, by old slot on each disk, and validates the result.
Validation is local, and gives the answer a full `validate` would: every
problem it reports lies on one disk (a tooth's type or 1-handle, the
drawing of the disk's combs, a free end's reach) or on one band (its two
arc-end counts).  Each (band, side) key of the index lives on one disk,
the one whose row of the host's `incidence` table holds it, so the child
graph takes the parent's index entries and problems for every other disk
and band, and rebuilds and checks only the two disks it rewrote and the
bands whose counts changed there.  Each disk reads only its own row, so
validation is linear in the size of the document.

A Whitehead move changes the neighborhood only inside a region: the comb
of the site, the two far combs it merges, and the removed arc.  Face
tracing enters and leaves that region only through arcs with one end
outside it, so the boundary circles are kept when the tracing walk routes
every entering arc end to the same leaving one before and after the move,
closes as many walks inside the region, and pairs the band's other arcs as
before.  The region is one piece before the move, and stays one when the
kept arc still joins the site's comb to the merged one; with one arc and one
comb gone, each component keeps its chi, and the child takes the parent's
summary.  A Whitehead move keeps fullness too, so the child of a full graph
is full without folding.  `reduce` still validates, summarises and checks
fullness of a fresh copy of its result against its input, so a local check
that missed a fault would show there.
"""

from __future__ import annotations

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
    host = graph.host
    if len(graph.disks) != host.strands:
        return [f"graph lists {len(graph.disks)} disks for a {host.strands}-strand host"]
    disks = range(1, host.strands + 1)
    problems = [p for disk in disks for p in _tooth_problems(host, disk, enumerate(graph.disks[disk - 1]))]
    if problems:
        return problems
    return _band_and_drawing_problems(graph, range(1, host.band_count() + 1), disks)


def _band_and_drawing_problems(graph: CombedGraph, bands, disks) -> list[str]:
    """The arc-end count problems of `bands`, then the first drawing problem of `disks`.

    Of the drawing problems, the first in the order of one pass over the
    bands, i side before j side, is reported: each disk's walk keeps its
    own state, so that is the least (band, side) at which a disk's walk
    stops.  A free end out of reach of the host boundary comes after every
    other drawing problem.
    """
    index = graph.arc_ends
    problems = []
    for band in bands:
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
# The edit primitive


def _inherit(graph: CombedGraph, **cached) -> None:
    """Store values of a new graph's cached properties, as their first use would."""
    graph.__dict__.update(cached)


def edit_band(graph: CombedGraph, band: int, replace: dict) -> CombedGraph:
    """Replace components on the disks `band` joins; renumber its arc ends.

    `replace` maps (disk, component index) of the parent graph to the
    components that take its place: none removes it, two split it.  The one
    renumbering rule: on each of its two disks the arc ends of `band` take
    slots 0, 1, ... in order of (old slot, listing position), so a removed
    end leaves no gap and the copies of a doubled end, listed bottom to top,
    stay in that order.  Rows of other disks are reused as they are, and so
    are their `arc_ends` entries.  The result is validated locally: the two
    rewritten disks, and the arc-end counts of the bands whose counts
    changed on them (see the module docstring).  An edit whose result fails
    is a bug in the caller, so it raises InternalError.
    """
    _require_valid(graph)
    incidence = graph.host.incidence
    hostband = graph.host.bands[band - 1]
    touched = (hostband.i, hostband.j)
    disks = list(graph.disks)
    rebuilt: dict[tuple[int, str], tuple[Location, ...]] = {}
    problems = []
    for disk in touched:
        row, new = [], []
        for ci, comp in enumerate(graph.disks[disk - 1]):
            items = replace.get((disk, ci), (comp,))
            if (disk, ci) in replace:
                new.extend(enumerate(items, start=len(row)))
            row.extend(items)
        # renumbering changes only slots, so only the new components can hold a bad tooth
        problems += _tooth_problems(graph.host, disk, new)
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
        rebuilt.update(_disk_arc_ends(incidence[disk - 1], disk, row))
    result = CombedGraph(graph.host, tuple(disks))
    parent = graph.arc_ends
    kept = dict(parent)
    for disk in touched:
        for key in incidence[disk - 1].items():  # the (band, side) keys that live on the disk
            kept.pop(key, None)
    _inherit(result, arc_ends=MappingProxyType(kept | rebuilt))
    if not problems:
        changed = {band}.union(
            key[0] for key in (parent.keys() - kept.keys()) | rebuilt.keys()
            if len(rebuilt.get(key, ())) != len(parent.get(key, ()))
        )
        problems = _band_and_drawing_problems(result, sorted(changed), touched)
    if problems:
        raise InternalError(f"edit of band {band} produced an invalid graph: {problems}")
    _inherit(result, _problems=())
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


def _is_site(teeth, ti: int) -> bool:
    """Whether teeth ti and ti+1 of a comb are arc ends at adjacent slots of one attaching arc."""
    if not 0 <= ti < len(teeth) - 1:
        return False
    a, b = teeth[ti], teeth[ti + 1]
    return isinstance(a, ArcEnd) and isinstance(b, ArcEnd) and a.band == b.band and b.slot == a.slot + 1


def _disk_sites(disk: int, comps) -> list[Site]:
    """The eligible sites of one disk, by (component, tooth)."""
    return [
        Site(disk, ci, ti)
        for ci, comp in enumerate(comps) if isinstance(comp, Comb)
        for ti in range(len(comp.teeth) - 1) if _is_site(comp.teeth, ti)
    ]


def eligible_sites(graph: CombedGraph) -> list[Site]:
    """Sites where consecutive teeth of a comb hold adjacent slots of one attaching arc."""
    return [site for disk, comps in enumerate(graph.disks, start=1) for site in _disk_sites(disk, comps)]


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


def _routing(graph: CombedGraph, band: int, region: set, relabel) -> tuple:
    """How face tracing crosses `region`, a set of (disk, component) combs.

    This is `_walk` restricted to the region's arc ends.  The walk enters
    the region through an arc from an outside arc end x to an arc end
    inside, and leaves it through an arc from inside to an outside arc end
    z.  Returns the map x to z, the number of walks that never leave the
    region, and the pairs of `band`'s arcs with no end in the region, all
    outside locations through `relabel`.
    """
    mate, disks = graph.mate, graph.disks
    inside = [
        (disk, ci, ti)
        for disk, ci in region
        for ti, tooth in enumerate(disks[disk - 1][ci].teeth) if isinstance(tooth, ArcEnd)
    ]
    routes, seen = {}, set()
    for start in inside:
        entry = mate[start]
        if entry[:2] in region:
            continue
        loc = start
        while True:
            seen.add(loc)
            out = _walk(mate, disks, loc)
            if out[:2] not in region:
                break
            loc = out
        routes[relabel(entry)] = relabel(out)
    closed = 0
    for loc in inside:
        if loc not in seen:
            closed += 1
            while loc not in seen:
                seen.add(loc)
                loc = _walk(mate, disks, loc)
    pairs = {
        relabel(loc): relabel(mate[loc])
        for loc in graph.arc_ends.get((band, "i"), ()) if loc[:2] not in region and mate[loc][:2] not in region
    }
    return routes, closed, pairs


def whitehead_step(graph: CombedGraph, site: Site) -> CombedGraph:
    """One Whitehead move: two parallel arcs become one, far combs merge.

    The far end of the removed arc lies directly below the far end of the
    kept one, and combs do not cross, so one far comb sits in a gap of the
    other or the two are stacked: either the kept end is the first arc end
    of its comb A, or the removed end is the last arc end of its comb B.
    The merged comb (`_merge_far_combs`) is listed where the lower-listed
    of A and B was.  Preserves the regular-neighborhood summary and
    fullness; drops the arc count by exactly one.  The summary is checked
    locally: the move must route the face-tracing walk through its region
    as before (`_routing`), with one arc and one comb gone.  The graph must
    be full (NotFull otherwise); fullness is cached per graph, and the child
    takes both the summary and fullness from its parent, so a chain of
    moves folds only the graph it starts from.
    """
    _require_valid(graph)
    comps = graph.disks[site.disk - 1] if 1 <= site.disk <= len(graph.disks) else ()
    comp = comps[site.component] if 0 <= site.component < len(comps) else None
    if not (isinstance(comp, Comb) and _is_site(comp.teeth, site.tooth)):
        raise SiteNotEligible(
            f"no eligible site at {site}: teeth {site.tooth} and {site.tooth + 1} of a comb must hold "
            f"adjacent slots of one 1-handle"
        )
    band = comp.teeth[site.tooth].band
    if not is_full(graph):
        raise NotFull("Whitehead moves require a full graph")

    near = (site.disk, site.component)
    far_disk, a_idx, ta = graph.mate[(*near, site.tooth)]  # kept arc's far end
    _, b_idx, tb = graph.mate[(*near, site.tooth + 1)]  # removed arc's far end
    if a_idx == b_idx:
        raise SiteNotEligible("far ends share a comb; the merge would close a cycle")

    low, high = sorted((a_idx, b_idx))
    far_comps = graph.disks[far_disk - 1]
    teeth = comp.teeth
    result = edit_band(graph, band, {
        near: (Comb(teeth[: site.tooth + 1] + teeth[site.tooth + 2 :]),),
        (far_disk, low): (_merge_far_combs(far_comps[a_idx].teeth, ta, far_comps[b_idx].teeth, tb),),
        (far_disk, high): (),  # absorbed into the merge
    })
    if result.total_arcs() != graph.total_arcs() - 1:
        raise InternalError("Whitehead move did not drop the arc count by one")
    if sum(map(len, result.disks)) != sum(map(len, graph.disks)) - 1:
        raise InternalError("Whitehead move did not drop the component count by one")

    def moved(loc: Location) -> Location:  # a parent location outside the region, as the result lists it
        disk, ci, ti = loc
        return (disk, ci - (disk == far_disk and ci > high), ti)

    before = _routing(graph, band, {near, (far_disk, a_idx), (far_disk, b_idx)}, moved)
    if _routing(result, band, {near, (far_disk, low)}, lambda loc: loc) != before:
        raise InternalError("Whitehead move changed the neighborhood summary")
    if result.mate[(*near, site.tooth)][:2] != (far_disk, low):
        raise InternalError("Whitehead move did not keep the site's comb joined to the merged comb")
    _inherit(result, _summary=graph._summary, _full=True)
    return result


def reduce(graph: CombedGraph) -> CombedGraph:
    """Apply Whitehead moves at the least eligible site until none remains."""
    return reduce_with_trace(graph)[0]


def reduce_with_trace(graph: CombedGraph) -> tuple[CombedGraph, list[Site]]:
    """`reduce`, and the sites of its moves in order.

    Each disk keeps its list of eligible sites, rebuilt only for the two
    disks a move rewrites.  The steps are checked locally; a fresh copy of
    the result is validated, summarised and folded again.  So a reduction
    that moves folds twice whatever its length: its input and that copy.
    """
    _require_valid(graph)
    if not is_full(graph):
        raise NotFull("reduce requires a full graph")
    summary = neighborhood_summary(graph)
    sites = [_disk_sites(disk, comps) for disk, comps in enumerate(graph.disks, start=1)]
    trace: list[Site] = []
    limit = graph.total_arcs()
    current = graph
    while (site := next((found[0] for found in sites if found), None)) is not None:
        if len(trace) >= limit:
            raise InternalError("reduction took more steps than the graph has arcs")
        hostband = graph.host.bands[current.disks[site.disk - 1][site.component].teeth[site.tooth].band - 1]
        current = whitehead_step(current, site)
        trace.append(site)
        for disk in (hostband.i, hostband.j):
            sites[disk - 1] = _disk_sites(disk, current.disks[disk - 1])
    if trace:
        fresh = CombedGraph(current.host, current.disks)
        if validate(fresh) or neighborhood_summary(fresh) != summary or not is_full(fresh):
            raise InternalError("Whitehead reduction lost validity, the neighborhood summary or fullness")
    return current, trace
