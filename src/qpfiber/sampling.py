"""Seeded random generators for words, representations, and combed graphs.

The graph generator starts from a handle spine (always full) and applies
inverse Whitehead moves: an arc is doubled into two parallel arcs and the
far comb is split between them.  Whitehead equivalence preserves both the
regular-neighborhood summary and fullness, so the output is a full combed
graph with multi-arc bands, suitable for exercising the reduction.

A doubling edits the teeth of the band's two disks directly, finding the
arc end, its mate and their locations in the graph's arc-end numbering.
Of the r arcs through the band, the old one holds slot p on the near side
and q = r-1-p on the far side.  On the near side the slots above p move up
one and the copy takes p+1, just above the old end; on the far side the
slots from q up move up one and the copy takes q, just below the old end.
Rows of other disks are reused as they are.

`random_direct_graph` samples combed graphs without any move, so it also
yields graphs that are not full, and graphs that `validate` rejects.
"""

from __future__ import annotations

import random

from .braidcore import BandRepresentation, EmbeddedBand
from .errors import InternalError, InvalidParameter
from .graphcalc import ArcEnd, Comb, CombedGraph, IsolatedPoint, _require_valid, validate
from .surface import BraidedSurface, handle_spine, summary


def random_band_representation(
    rng: random.Random,
    max_strands: int,
    max_bands: int,
    positive_only: bool = False,
    min_strands: int = 1,
    min_bands: int = 0,
) -> BandRepresentation:
    n = rng.randint(min_strands, max_strands)
    k = rng.randint(min_bands, max_bands) if n >= 2 else 0
    bands = []
    for _ in range(k):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sign = 1 if positive_only else rng.choice((1, -1))
        bands.append(EmbeddedBand(i, j, sign))
    return BandRepresentation(n, tuple(bands))


def random_connected_representation(
    rng: random.Random, max_strands: int, max_bands: int, positive_only: bool = False
) -> BandRepresentation:
    while True:
        rep = random_band_representation(
            rng, max_strands, max_bands, positive_only=positive_only, min_strands=2, min_bands=1
        )
        if len(summary(BraidedSurface(rep)).components) == 1:
            return rep


def _double_arc(graph: CombedGraph, band: int, slot: int, near_disk: int, split: bool) -> CombedGraph:
    """Double the arc at (band, near-side slot) by the doubling rule (see the module docstring).

    With `split` the far comb is cut between the copy and the old end.  A
    band outside 1..k, a near disk that is not one of the band's two disks
    or a slot outside 0..r-1, or any of them not an int, is refused
    (InvalidParameter) before any edit.
    A result that fails `validate` is a bug here, so it raises InternalError.
    """
    host = graph.host
    if type(band) is not int or not 1 <= band <= host.band_count():  # not isinstance: True is an int
        raise InvalidParameter(f"1-handle {band!r} is not an integer in 1..{host.band_count()}")
    hostband = host.bands[band - 1]
    if type(near_disk) is not int or near_disk not in (hostband.i, hostband.j):
        raise InvalidParameter(f"disk {near_disk!r} is not an end of 1-handle {band} ({hostband.i}, {hostband.j})")
    _require_valid(graph)
    ends = graph._ends
    sides = ("i", "j") if near_disk == hostband.i else ("j", "i")
    near, far = (ends.keys.get((band, side), ()) for side in sides)
    r = len(near)
    if type(slot) is not int or not 0 <= slot < r:
        raise InvalidParameter(f"slot {slot!r} is not an integer in 0..{r - 1}: 1-handle {band} carries {r} arcs")
    q = r - 1 - slot
    rows = {  # the band's two disks, each comb as a list of teeth to edit
        disk: [list(comp.teeth) if isinstance(comp, Comb) else comp for comp in graph.disks[disk - 1]]
        for disk in (hostband.i, hostband.j)
    }
    for numbers, first in ((near, slot + 1), (far, q)):
        for s in range(first, r):
            disk, ci, ti = ends.locs[numbers[s]]
            rows[disk][ci][ti] = ArcEnd(band, s + 1)
    disk, ci, ti = ends.locs[near[slot]]
    rows[disk][ci].insert(ti + 1, ArcEnd(band, slot + 1))
    disk, ci, ti = ends.locs[ends.mate[near[slot]]]
    rows[disk][ci].insert(ti, ArcEnd(band, q))
    if split:
        rows[disk][ci : ci + 1] = rows[disk][ci][: ti + 1], rows[disk][ci][ti + 1 :]
    disks = list(graph.disks)
    for disk, row in rows.items():
        disks[disk - 1] = tuple(Comb(comp) if isinstance(comp, list) else comp for comp in row)
    result = CombedGraph(host, tuple(disks))
    problems = validate(result)
    if problems:
        raise InternalError(f"doubling an arc of 1-handle {band} produced an invalid graph: {problems}")
    return result


def inverse_whitehead(graph: CombedGraph, band: int, slot: int, near_disk: int) -> CombedGraph:
    """Double the arc at (band, near-side slot) into two parallel arcs.

    The new arc sits just above the old one on the near side; on the far
    side the comb splits between the two ends.  Inverse to a Whitehead move,
    hence summary- and fullness-preserving.
    """
    return _double_arc(graph, band, slot, near_disk, split=True)


def _double_random_arc(rng: random.Random, graph: CombedGraph, edit) -> CombedGraph | None:
    """`edit` (a doubling) at a random arc, drawn as its band, its slot, then the near disk; None without arcs."""
    bands = [t for t in range(1, graph.host.band_count() + 1) if graph.arc_count(t)]
    if not bands:
        return None
    band = rng.choice(bands)
    slot = rng.randrange(graph.arc_count(band))
    hostband = graph.host.bands[band - 1]
    return edit(graph, band, slot, rng.choice((hostband.i, hostband.j)))


def random_full_graph(
    rng: random.Random,
    max_strands: int = 4,
    max_bands: int = 5,
    max_arcs: int = 12,
    expansions: int = 4,
) -> CombedGraph:
    """A full combed graph: a random spine plus inverse Whitehead moves."""
    rep = random_band_representation(
        rng, max_strands, max_bands, min_strands=2, min_bands=1
    )
    selected = [t for t in range(1, len(rep.bands) + 1) if rng.random() < 0.8]
    graph = handle_spine(BraidedSurface(rep), selected)
    for _ in range(rng.randint(0, expansions)):
        if graph.total_arcs() >= max_arcs:
            break
        graph = _double_random_arc(rng, graph, inverse_whitehead) or graph
    return graph


def random_fine_handle_subset(rng: random.Random, band_count: int) -> list[int]:
    return [t for t in range(1, band_count + 1) if rng.random() < 0.5]


def double_arc_bigon(graph: CombedGraph, band: int, slot: int, near_disk: int) -> CombedGraph:
    """Double an arc WITHOUT splitting the far comb: creates a bigon.

    The two parallel arcs then cobound a disk on the host, so the result is
    never full.  Used to exercise the fullness detector.
    """
    return _double_arc(graph, band, slot, near_disk, split=False)


def random_graph_mixed_fullness(rng: random.Random) -> CombedGraph:
    """A combed graph that may or may not be full."""
    graph = random_full_graph(rng, max_arcs=10, expansions=3)
    if rng.random() < 0.5:
        graph = _double_random_arc(rng, graph, double_arc_bigon) or graph
    return graph


def random_direct_graph(rng: random.Random, max_arcs: int = 10) -> CombedGraph:
    """A combed graph sampled directly; `validate` may reject it.

    Arcs are spread over random bands.  Each disk lists the teeth its bands
    need, in boundary order or shuffled, cuts the list into combs at random,
    and may add an isolated point; slots follow the listing order.  Shuffled
    listings may give combs that meet the boundary out of order or cross,
    which `validate` rejects.
    """
    rep = random_band_representation(rng, 4, 4, min_strands=2, min_bands=1)
    arcs = [0] * len(rep.bands)
    for _ in range(rng.randint(1, max_arcs)):
        arcs[rng.randrange(len(arcs))] += 1
    host = BraidedSurface(rep)
    disks = []
    for row in host.incidence:
        labels = [t for t in row for _ in range(arcs[t - 1])]
        if rng.random() < 0.5:
            rng.shuffle(labels)
        slots: dict[int, int] = {}
        comps: list = []
        while labels:
            cut = rng.randint(1, len(labels))
            teeth = []
            for t in labels[:cut]:
                slot = slots.get(t, 0)
                teeth.append(ArcEnd(t, slot))
                slots[t] = slot + 1
            comps.append(Comb(tuple(teeth)))
            labels = labels[cut:]
        if not comps or rng.random() < 0.2:
            comps.insert(rng.randint(0, len(comps)), IsolatedPoint())
        disks.append(tuple(comps))
    return CombedGraph(host, tuple(disks))
