"""Seeded random generators for words, representations, and combed graphs.

The graph generator starts from a handle spine (always full) and applies
inverse Whitehead moves: an arc is doubled into two parallel arcs and the
far comb is split between them.  Whitehead equivalence preserves both the
regular-neighborhood summary and fullness, so the output is a full combed
graph with multi-arc bands, suitable for exercising the reduction.
"""

from __future__ import annotations

import random

from .braidcore import BandRepresentation, EmbeddedBand
from .errors import InternalError
from .graphcalc import ArcEnd, Comb, CombedGraph, _arc_end_locations, validate
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


def random_connected_quasipositive(
    rng: random.Random, max_strands: int, max_bands: int
) -> BandRepresentation:
    while True:
        rep = random_band_representation(
            rng, max_strands, max_bands, positive_only=True, min_strands=2, min_bands=1
        )
        if len(summary(BraidedSurface(rep)).components) == 1:
            return rep


def inverse_whitehead(graph: CombedGraph, band: int, slot: int, near_disk: int) -> CombedGraph:
    """Double the arc at (band, near-side slot) into two parallel arcs.

    The new arc sits just above the old one on the near side; on the far
    side the comb splits between the two ends.  Inverse to a Whitehead move,
    hence summary- and fullness-preserving.
    """
    hostband = graph.host.bands[band - 1]
    if near_disk not in (hostband.i, hostband.j):
        raise InternalError("near disk is not an end of the band")
    near_side = "i" if near_disk == hostband.i else "j"
    far_side = "j" if near_side == "i" else "i"
    far_disk = hostband.j if near_side == "i" else hostband.i
    index = _arc_end_locations(graph)
    r = graph.arc_count(band)
    near_loc = index[(band, near_side)][slot]
    far_loc = index[(band, far_side)][r - 1 - slot]

    def renumber(item, disk):
        """Old slots above the insertion points move up by one."""
        if not isinstance(item, ArcEnd) or item.band != band:
            return item
        side = "i" if disk == hostband.i else "j"
        threshold = slot if side == near_side else r - 2 - slot
        return ArcEnd(band, item.slot + 1 if item.slot > threshold else item.slot)

    new_near = ArcEnd(band, slot + 1)
    new_far = ArcEnd(band, r - 1 - slot)  # the doubled arc's far end
    new_disks = []
    for disk, comps in enumerate(graph.disks, start=1):
        row = []
        for ci, comp in enumerate(comps):
            if not isinstance(comp, Comb):
                row.append(comp)
                continue
            teeth = [renumber(x, disk) for x in comp.teeth]
            if (disk, ci) == (near_loc[0], near_loc[1]):
                teeth.insert(near_loc[2] + 1, new_near)
                row.append(Comb(tuple(teeth)))
            elif (disk, ci) == (far_loc[0], far_loc[1]):
                below = teeth[: far_loc[2]] + [new_far]
                above = teeth[far_loc[2] :]
                row.append(Comb(tuple(below)))
                row.append(Comb(tuple(above)))
            else:
                row.append(Comb(tuple(teeth)))
        new_disks.append(tuple(row))
    result = CombedGraph(graph.host, tuple(new_disks))
    problems = validate(result)
    if problems:
        raise InternalError(f"inverse Whitehead move broke the graph: {problems}")
    return result


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
    surface = BraidedSurface(rep)
    k = len(rep.bands)
    selected = [t for t in range(1, k + 1) if rng.random() < 0.8]
    graph = handle_spine(surface, selected)
    for _ in range(rng.randint(0, expansions)):
        if graph.total_arcs() >= max_arcs:
            break
        bands_with_arcs = [t for t in range(1, k + 1) if graph.arc_count(t)]
        if not bands_with_arcs:
            break
        band = rng.choice(bands_with_arcs)
        slot = rng.randrange(graph.arc_count(band))
        hostband = graph.host.bands[band - 1]
        near = rng.choice((hostband.i, hostband.j))
        graph = inverse_whitehead(graph, band, slot, near)
    return graph


def random_fine_handle_subset(rng: random.Random, band_count: int) -> list[int]:
    return [t for t in range(1, band_count + 1) if rng.random() < 0.5]


def double_arc_bigon(graph: CombedGraph, band: int, slot: int, near_disk: int) -> CombedGraph:
    """Double an arc WITHOUT splitting the far comb: creates a bigon.

    The two parallel arcs then cobound a disk on the host, so the result is
    never full.  Used to exercise the fullness detector.
    """
    hostband = graph.host.bands[band - 1]
    near_side = "i" if near_disk == hostband.i else "j"
    far_side = "j" if near_side == "i" else "i"
    index = _arc_end_locations(graph)
    r = graph.arc_count(band)
    near_loc = index[(band, near_side)][slot]
    far_loc = index[(band, far_side)][r - 1 - slot]

    def renumber(item, disk):
        if not isinstance(item, ArcEnd) or item.band != band:
            return item
        side = "i" if disk == hostband.i else "j"
        threshold = slot if side == near_side else r - 2 - slot
        return ArcEnd(band, item.slot + 1 if item.slot > threshold else item.slot)

    new_near = ArcEnd(band, slot + 1)
    new_far = ArcEnd(band, r - 1 - slot)
    new_disks = []
    for disk, comps in enumerate(graph.disks, start=1):
        row = []
        for ci, comp in enumerate(comps):
            if not isinstance(comp, Comb):
                row.append(comp)
                continue
            teeth = [renumber(x, disk) for x in comp.teeth]
            if (disk, ci) == (near_loc[0], near_loc[1]):
                teeth.insert(near_loc[2] + 1, new_near)
            if (disk, ci) == (far_loc[0], far_loc[1]):
                teeth.insert(far_loc[2], new_far)
            row.append(Comb(tuple(teeth)))
        new_disks.append(tuple(row))
    result = CombedGraph(graph.host, tuple(new_disks))
    problems = validate(result)
    if problems:
        raise InternalError(f"bigon doubling broke the graph: {problems}")
    return result


def random_graph_mixed_fullness(rng: random.Random) -> CombedGraph:
    """A combed graph that may or may not be full."""
    graph = random_full_graph(rng, max_arcs=10, expansions=3)
    if rng.random() < 0.5:
        bands_with_arcs = [
            t for t in range(1, graph.host.band_count() + 1) if graph.arc_count(t)
        ]
        if bands_with_arcs:
            band = rng.choice(bands_with_arcs)
            slot = rng.randrange(graph.arc_count(band))
            hostband = graph.host.bands[band - 1]
            near = rng.choice((hostband.i, hostband.j))
            graph = double_arc_bigon(graph, band, slot, near)
    return graph
