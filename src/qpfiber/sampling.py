"""Seeded random generators for words, representations, and combed graphs.

The graph generator starts from a handle spine (always full) and applies
inverse Whitehead moves: an arc is doubled into two parallel arcs and the
far comb is split between them.  Whitehead equivalence preserves both the
regular-neighborhood summary and fullness, so the output is a full combed
graph with multi-arc bands, suitable for exercising the reduction.

`random_direct_graph` samples combed graphs without any move, so it also
yields graphs that are not full, and graphs that `validate` rejects.
"""

from __future__ import annotations

import random

from .braidcore import BandRepresentation, EmbeddedBand
from .errors import InternalError
from .graphcalc import ArcEnd, Comb, CombedGraph, IsolatedPoint, edit_band
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
    """Double the arc at (band, near-side slot).

    The copy sits just above the old arc end on the near side and just below
    it on the far side; with `split` the far comb is cut between the two.
    """
    side = graph.host.incidence[near_disk - 1].get(band)
    if side is None:
        raise InternalError("near disk is not an end of the band")
    near_loc = graph.arc_ends[(band, side)][slot]
    _, near_ci, near_ti = near_loc
    far_disk, far_ci, far_ti = graph.mate[near_loc]
    near = graph.disks[near_disk - 1][near_ci].teeth
    far = graph.disks[far_disk - 1][far_ci].teeth
    if split:
        far_combs = (Comb(far[: far_ti + 1]), Comb(far[far_ti:]))
    else:
        far_combs = (Comb(far[: far_ti + 1] + far[far_ti:]),)
    # the doubled teeth repeat the old ones; edit_band gives them their slots
    return edit_band(graph, band, {
        (near_disk, near_ci): (Comb(near[: near_ti + 1] + near[near_ti:]),),
        (far_disk, far_ci): far_combs,
    })


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
