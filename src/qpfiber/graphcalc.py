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
a non-crossing partition of the boundary points (combs may nest).

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

Face tracing walks the boundary of a regular neighborhood with two tokens
per arc end: the strand entering the band just above a tooth, and the
strand leaving it just below.  Inside a comb the walk drops one tooth
cyclically (skipping teeth that end on the surface boundary); through a
band it jumps to the paired arc end.  Orbits of this successor map are the
boundary circles of components containing at least one arc; arc-free
components are disks.

A `CombedGraph` is immutable: its fields are tuples of frozen objects, and
every edit builds a new graph.  So what a graph determines is worked out
once per instance, when first asked for, and kept on the instance: the
arc-end index (`arc_ends`, read by `arc_count`, `total_arcs`, `arcs` and
every edit), the arc pairing (`mate`), the `validate` problems and the
`neighborhood_summary`.  No check is skipped by this: a graph built by an
edit is a new instance, so it is validated and summarised afresh, and the
input of the next edit is the graph the previous one already checked.

Every edit goes through `edit_band`: it replaces components on the two
disks one band joins, reusing every other disk's row, renumbers that band's
arc ends by one rule, by old slot on each disk, and validates the result.
"""

from __future__ import annotations

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
        naming a 1-handle the host lacks are left out; `validate` reports them.
        """
        index: dict[tuple[int, str], list[Location]] = {}
        slots: dict[tuple[int, str], list[int]] = {}  # of each list found out of slot order
        bands = self.host.bands
        for disk, comps in enumerate(self.disks, start=1):
            for ci, comp in enumerate(comps):
                if not isinstance(comp, Comb):
                    continue
                for ti, tooth in enumerate(comp.teeth):
                    if isinstance(tooth, ArcEnd) and 1 <= tooth.band <= len(bands):
                        key = (tooth.band, "i" if disk == bands[tooth.band - 1].i else "j")
                        locs = index.setdefault(key, [])
                        if key in slots or tooth.slot != len(locs):  # in order, the slots so far are 0..len-1
                            slots.setdefault(key, [*range(len(locs))]).append(tooth.slot)
                        locs.append((disk, ci, ti))
        for key, found in slots.items():  # one disk per key, so equal slots sort by listing position
            index[key] = [loc for _slot, loc in sorted(zip(found, index[key]))]
        return MappingProxyType({key: tuple(locs) for key, locs in index.items()})

    @cached_property
    def mate(self) -> MappingProxyType:
        """Each arc-end location to the location at the other end of its arc.

        The pairing rule: of the r arc ends through a band, the one at slot p
        on the i side meets the one at slot r-1-p on the j side (the
        half-twist reverses the transverse order).  Built from `arc_ends`;
        meaningful only on a graph that `validate` accepts.
        """
        index = self.arc_ends
        pairs: dict[Location, Location] = {}
        for band in range(1, self.host.band_count() + 1):
            i_side = index.get((band, "i"), ())
            j_side = index.get((band, "j"), ())
            for near, far in zip(i_side, reversed(j_side)):
                pairs[near] = far
                pairs[far] = near
        return MappingProxyType(pairs)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))

    @cached_property
    def _summary(self) -> SurfaceSummary:
        _require_valid(self)
        return _trace_summary(self)

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


def validate(graph: CombedGraph) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    return list(graph._problems)


def _find_problems(graph: CombedGraph) -> list[str]:
    problems = []
    host = graph.host
    if len(graph.disks) != host.strands:
        return [f"graph lists {len(graph.disks)} disks for a {host.strands}-strand host"]
    k = host.band_count()
    for disk, comps in enumerate(graph.disks, start=1):
        for ci, comp in enumerate(comps):
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
                band = host.bands[tooth.band - 1]
                if disk not in (band.i, band.j):
                    problems.append(
                        f"disk {disk} tooth enters 1-handle {tooth.band} joining {band.i},{band.j}"
                    )
    if problems:
        return problems
    index = graph.arc_ends
    for band in range(1, k + 1):
        i_side = index.get((band, "i"), [])
        j_side = index.get((band, "j"), [])
        if len(i_side) != len(j_side):
            problems.append(
                f"1-handle {band} has {len(i_side)} arc ends on the i side, {len(j_side)} on the j side"
            )
    problem = _drawing_problem(graph)
    if problem:
        problems.append(problem)
    return problems


def _drawing_problem(graph: CombedGraph) -> str | None:
    """Why the combs cannot be drawn in their disks, or None if they can.

    The arc ends entering one attaching arc must hold slots 0..r-1, each
    once.  On a disk's boundary the arc ends lie in (band height, slot)
    order.  A comb must meet its arc ends in that order, bottom to top, and
    no two combs may cross: their arc ends form a non-crossing partition of
    the boundary points, so one comb may nest between two teeth of another.
    Free ends take no position.  One pass over the bands keeps, per disk, a
    stack of the combs met but not finished.
    """
    index = graph.arc_ends
    # disk -> (stack of combs met but not finished, {comb: [tooth after the last arc end met, its last arc end]})
    state: dict[int, tuple[list[int], dict[int, list[int]]]] = {}
    for band, hostband in enumerate(graph.host.bands, start=1):
        for disk, side in ((hostband.i, "i"), (hostband.j, "j")):
            locs = index.get((band, side))
            if not locs:
                continue
            if disk not in state:
                state[disk] = ([], {})
            stack, combs = state[disk]
            comps = graph.disks[disk - 1]
            for slot, (_disk, ci, ti) in enumerate(locs):
                teeth = comps[ci].teeth
                if teeth[ti].slot != slot:
                    slots = [graph.disks[d - 1][c].teeth[t].slot for d, c, t in locs]
                    return f"1-handle {band} {side}-side slots are {slots}, expected 0..{len(locs) - 1} each once"
                met = combs.get(ci)
                first = met[0] if met else 0
                if ti != first:
                    if first and teeth[first - 1].band == band:
                        return f"disk {disk} component {ci}: teeth into 1-handle {band} are not consecutive"
                    expected = first
                    while not isinstance(teeth[expected], ArcEnd):
                        expected += 1
                    if ti != expected:
                        return f"disk {disk} component {ci}: teeth are out of (1-handle, slot) order"
                if met is None:
                    end = len(teeth) - 1
                    while not isinstance(teeth[end], ArcEnd):
                        end -= 1
                    met = combs[ci] = [0, end]
                    stack.append(ci)
                elif stack[-1] != ci:
                    return f"disk {disk}: components {stack[-1]} and {ci} cross on the disk boundary"
                met[0] = ti + 1
                if ti == met[1]:
                    stack.pop()
    return None


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


def _component_roots(graph: CombedGraph):
    """Union-find over (disk, comp) nodes along the arcs."""
    nodes = [
        (disk, ci)
        for disk, comps in enumerate(graph.disks, start=1)
        for ci in range(len(comps))
    ]
    sets = UnionFind(nodes)
    for _band, tail, head in _graph_arcs(graph):
        sets.union(tail, head)
    return nodes, sets.find


def neighborhood_summary(graph: CombedGraph) -> SurfaceSummary:
    """Homeomorphism type of a regular neighborhood of the graph."""
    return graph._summary


def _trace_summary(graph: CombedGraph) -> SurfaceSummary:
    index, mate = graph.arc_ends, graph.mate
    nodes, find = _component_roots(graph)

    def comb_predecessor(loc: Location) -> Location:
        """Next arc end reached inside the comb: drop one tooth cyclically."""
        disk, ci, ti = loc
        teeth = graph.disks[disk - 1][ci].teeth
        m = len(teeth)
        step = (ti - 1) % m
        while not isinstance(teeth[step], ArcEnd):
            step = (step - 1) % m
        return (disk, ci, step)

    orbits_per_root: dict = {}
    seen: set[tuple[str, Location]] = set()
    for start_loc in mate:
        for phase in ("A", "B"):
            token = (phase, start_loc)
            if token in seen:
                continue
            root = find((start_loc[0], start_loc[1]))
            orbits_per_root[root] = orbits_per_root.get(root, 0) + 1
            while token not in seen:
                seen.add(token)
                ph, loc = token
                if ph == "A":
                    token = ("B", mate[loc])
                else:
                    token = ("A", comb_predecessor(loc))

    node_count: dict = {}
    arc_count: dict = {}
    for node in nodes:
        root = find(node)
        node_count[root] = node_count.get(root, 0) + 1
    for band in range(1, graph.host.band_count() + 1):
        for loc in index.get((band, "i"), []):
            root = find((loc[0], loc[1]))
            arc_count[root] = arc_count.get(root, 0) + 1

    components = []
    for root, vertices in node_count.items():
        edges = arc_count.get(root, 0)
        chi = vertices - edges
        boundary = orbits_per_root.get(root, 0)
        if edges == 0:
            assert vertices == 1 and boundary == 0
            boundary = 1
        components.append((chi, boundary))
    return SurfaceSummary.from_components(components)


# ---------------------------------------------------------------------------
# Fullness by Stallings folding


def _host_spanning_tree(host: BraidedSurface) -> set[int]:
    """Band heights forming the spanning forest of the handle graph."""
    forest, _cycles = fundamental_cycles([(band.i, band.j) for band in host.bands])
    return {pos + 1 for pos in forest}


def _free_reduce(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    stack: list[tuple[int, int]] = []
    for letter in word:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def _cyclic_reduce(word: list[tuple[int, int]]) -> list[tuple[int, int]]:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return word


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
    """True iff the graph is pi_1-injective on each component, by folding.

    Folding identifies, at each node class, arcs through one band that
    leave it on the same side, and so merges their other ends.  It keeps
    E - V exactly when no fold identifies two arcs whose other ends were
    already one node, that is, when no cycle dies (see the module docstring).
    """
    _require_valid(graph)
    stars: dict = {}  # node root -> {(band, +1 at the i end, -1 at the j end): a neighbor}
    pending = []      # pairs of nodes that folding must merge
    arcs = _graph_arcs(graph)
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


# ---------------------------------------------------------------------------
# The edit primitive


def edit_band(graph: CombedGraph, band: int, replace: dict) -> CombedGraph:
    """Replace components on the disks `band` joins; renumber its arc ends.

    `replace` maps (disk, component index) of the parent graph to the
    components that take its place: none removes it, two split it.  The one
    renumbering rule: on each of its two disks the arc ends of `band` take
    slots 0, 1, ... in order of (old slot, listing position), so a removed
    end leaves no gap and the copies of a doubled end, listed bottom to top,
    stay in that order.  Rows of other disks are reused as they are.  An
    edit whose result fails `validate` is a bug in the caller, so it raises
    InternalError.
    """
    hostband = graph.host.bands[band - 1]
    disks = list(graph.disks)
    for disk in (hostband.i, hostband.j):
        row = [
            item for ci, comp in enumerate(graph.disks[disk - 1]) for item in replace.get((disk, ci), (comp,))
        ]
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


def eligible_sites(graph: CombedGraph) -> list[Site]:
    """Sites where consecutive teeth of a comb hold adjacent slots of one attaching arc."""
    sites = []
    for disk, comps in enumerate(graph.disks, start=1):
        for ci, comp in enumerate(comps):
            if not isinstance(comp, Comb):
                continue
            for ti in range(len(comp.teeth) - 1):
                a, b = comp.teeth[ti], comp.teeth[ti + 1]
                if isinstance(a, ArcEnd) and isinstance(b, ArcEnd) and a.band == b.band and b.slot == a.slot + 1:
                    sites.append(Site(disk, ci, ti))
    return sites


def whitehead_step(graph: CombedGraph, site: Site, check_full: bool = True) -> CombedGraph:
    """One Whitehead move: two parallel arcs become one, far combs merge.

    The far end of the removed arc lies directly below the far end of the
    kept one, and combs do not cross, so one far comb sits in a gap of the
    other or the two are stacked: either the kept end is the first arc end
    of its comb A, or the removed end is the last arc end of its comb B.
    The merged comb is A up to the kept end, B up to the removed end, then
    the rest of A and of B, listed where the lower-listed of A and B was.
    A free end left between two arc ends into one band, where no host
    boundary lies, goes to the top; no drawable input leaves one there.
    Preserves the regular-neighborhood summary and fullness; drops the arc
    count by exactly one.
    """
    _require_valid(graph)
    comps = graph.disks[site.disk - 1] if 1 <= site.disk <= len(graph.disks) else ()
    if not (0 <= site.component < len(comps) and site.tooth >= 0):
        raise SiteNotEligible(f"no component at {site}")
    comp = comps[site.component]
    if not isinstance(comp, Comb):
        raise SiteNotEligible("site component is an isolated point")
    if site.tooth + 1 >= len(comp.teeth):
        raise SiteNotEligible("site names a tooth without an upper neighbor")
    lower, upper = comp.teeth[site.tooth], comp.teeth[site.tooth + 1]
    if not (isinstance(lower, ArcEnd) and isinstance(upper, ArcEnd)):
        raise SiteNotEligible("site teeth are not both arc ends")
    if lower.band != upper.band:
        raise SiteNotEligible("site teeth enter different 1-handles")
    band = lower.band
    if upper.slot != lower.slot + 1:
        raise SiteNotEligible("site teeth do not hold adjacent slots")
    if check_full and not is_full(graph):
        raise NotFull("Whitehead moves require a full graph")

    near_disk = site.disk
    far_disk, a_idx, ta = graph.mate[(near_disk, site.component, site.tooth)]  # kept arc's far end
    _, b_idx, tb = graph.mate[(near_disk, site.component, site.tooth + 1)]  # removed arc's far end
    if a_idx == b_idx:
        raise SiteNotEligible("far ends share a comb; the merge would close a cycle")

    a, b = graph.disks[far_disk - 1][a_idx].teeth, graph.disks[far_disk - 1][b_idx].teeth
    merged, lifted, run, last = [], [], [], None  # run: free ends since the last arc end
    for tooth in a[:ta] + b[:tb] + a[ta:] + b[tb + 1 :]:
        if isinstance(tooth, FreeEnd):
            run.append(tooth)
            continue
        (lifted if tooth.band == last else merged).extend(run)
        merged.append(tooth)
        run, last = [], tooth.band
    teeth = comp.teeth
    result = edit_band(graph, band, {
        (near_disk, site.component): (Comb(teeth[: site.tooth + 1] + teeth[site.tooth + 2 :]),),
        (far_disk, min(a_idx, b_idx)): (Comb(tuple(merged + run + lifted)),),
        (far_disk, max(a_idx, b_idx)): (),  # absorbed into the merge
    })
    if result.total_arcs() != graph.total_arcs() - 1:
        raise InternalError("Whitehead move did not drop the arc count by one")
    if neighborhood_summary(result) != graph._summary:
        raise InternalError("Whitehead move changed the neighborhood summary")
    return result


def reduce(graph: CombedGraph) -> CombedGraph:
    """Apply Whitehead moves at the least eligible site until none remains."""
    return reduce_with_trace(graph)[0]


def reduce_with_trace(graph: CombedGraph) -> tuple[CombedGraph, list[Site]]:
    _require_valid(graph)
    if not is_full(graph):
        raise NotFull("reduce requires a full graph")
    trace: list[Site] = []
    limit = graph.total_arcs()
    current = graph
    while True:
        sites = eligible_sites(current)
        if not sites:
            return current, trace
        if len(trace) >= limit:
            raise InternalError("reduction took more steps than the graph has arcs")
        site = sites[0]
        current = whitehead_step(current, site, check_full=False)
        trace.append(site)
