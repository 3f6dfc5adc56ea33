"""Seeded workload inputs, made by the benchmark's own code.

Nothing here imports qpfiber, so the inputs depend on the seed alone and
stay fixed when the package's samplers change.  Combed graphs are plain
lists: ``disks[s - 1]`` lists disk s's components bottom to top, each either
``None`` (an isolated point) or a list of teeth ``[band, slot]``.
"""

from __future__ import annotations

import random

from checks import is_connected


def q_rep_bands(n: int) -> list[tuple[int, int, int]]:
    """Bands of the quasipositive fiber model on nu = (n-1)^2 + 1 strands."""
    nu = (n - 1) ** 2 + 1
    bands = [(1, nu - s + 1, 1) for s in range(1, nu)]
    for s in range(nu, 2 * (nu - 1) + 1):
        c, d = divmod(s - nu, n - 1)
        bands.append((1, nu - c - (n - 1) * d, 1))
    return bands


def rep_doc(strands: int, bands) -> dict:
    return {"strands": strands, "bands": [list(b) for b in bands]}


# -- band representations for the oracle sweep ------------------------------


def random_connected_rep(rng: random.Random, strands: int, band_count: int, positive: bool):
    while True:
        bands = []
        for _ in range(band_count):
            i = rng.randint(1, strands - 1)
            bands.append((i, rng.randint(i + 1, strands), 1 if positive else rng.choice((1, -1))))
        if is_connected(strands, bands):
            return bands


def sweep_reps(rng: random.Random) -> list[tuple[int, list]]:
    """Four quasipositive and four signed surfaces per (strands, bands) cell.

    Cells run over 3..7 strands and 4..10 bands, wherever the bands can
    connect the strands; 32 cells, 256 representations.  Four of each kind
    per cell keep the seed's share of the round's median and tail small.
    """
    reps = []
    for strands in range(3, 8):
        for band_count in range(max(4, strands - 1), 11):
            for positive in (True, False) * 4:
                reps.append((strands, random_connected_rep(rng, strands, band_count, positive)))
    return reps


# -- full combed graphs on S(q_n) -------------------------------------------


def spine(strands: int, bands, marked) -> list[list]:
    """The handle spine of the marked bands: a full combed graph."""
    disks = []
    for s in range(1, strands + 1):
        teeth = [[t, 0] for t in sorted(marked) if s in bands[t - 1][:2]]
        disks.append([teeth] if teeth else [None])
    return disks


def _arc_ends(disks, bands) -> dict:
    """(band, side) -> arc-end locations (disk, comp, tooth), bottom to top."""
    index: dict = {}
    for disk, comps in enumerate(disks, start=1):
        for ci, comp in enumerate(comps):
            for ti, (band, _) in enumerate(comp or ()):
                side = "i" if disk == bands[band - 1][0] else "j"
                index.setdefault((band, side), []).append((disk, ci, ti))
    return index


def inverse_whitehead(disks, bands, band: int, slot: int, near_disk: int) -> list[list]:
    """Double one arc and split the far comb between the two copies.

    The inverse of a Whitehead move, so fullness and the neighborhood type
    are kept while the arc count grows by one.
    """
    i, j, _ = bands[band - 1]
    near_side, far_side = ("i", "j") if near_disk == i else ("j", "i")
    index = _arc_ends(disks, bands)
    r = len(index[(band, "i")])
    near = index[(band, near_side)][slot]
    far = index[(band, far_side)][r - 1 - slot]
    out = []
    for disk, comps in enumerate(disks, start=1):
        side = "i" if disk == i else "j"
        threshold = slot if side == near_side else r - 2 - slot
        row = []
        for ci, comp in enumerate(comps):
            if comp is None:
                row.append(None)
                continue
            teeth = [
                [b, s + 1] if b == band and s > threshold else [b, s] for b, s in comp
            ]
            if (disk, ci) == near[:2]:
                teeth.insert(near[2] + 1, [band, slot + 1])
                row.append(teeth)
            elif (disk, ci) == far[:2]:
                row.append(teeth[: far[2]] + [[band, r - 1 - slot]])
                row.append(teeth[far[2] :])
            else:
                row.append(teeth)
        out.append(row)
    return out


def arc_counts(disks, bands) -> dict[int, int]:
    counts: dict[int, int] = {}
    for disk, comps in enumerate(disks, start=1):
        for comp in comps:
            for band, _ in comp or ():
                if disk == bands[band - 1][0]:
                    counts[band] = counts.get(band, 0) + 1
    return counts


def marked_handles(rng: random.Random, n: int, doubly: int, singly: int) -> list[int]:
    """Fine 1-handles of S(q_n) to mark: both bands on `doubly` outer disks, one on `singly`.

    Every band of q_rep(n) joins disk 1 to an outer disk, and every outer disk
    meets two bands, so the spine's cycle rank is exactly `doubly`.
    """
    by_disk: dict[int, list[int]] = {}
    for t, (_, j, _) in enumerate(q_rep_bands(n), start=1):
        by_disk.setdefault(j, []).append(t)
    disks = sorted(by_disk)
    rng.shuffle(disks)
    marked = [t for d in disks[:doubly] for t in by_disk[d]]
    marked += [rng.choice(by_disk[d]) for d in disks[doubly : doubly + singly]]
    return sorted(marked)


def grown_graph(rng: random.Random, n: int, doubly: int, singly: int, arcs: int):
    """A full graph on S(q_n): a random handle spine grown to `arcs` arcs."""
    bands = q_rep_bands(n)
    marked = marked_handles(rng, n, doubly, singly)
    disks = spine(len(bands) // 2 + 1, bands, marked)
    for _ in range(arcs - len(marked)):
        counts = arc_counts(disks, bands)
        band = rng.choice(sorted(counts))
        near = rng.choice(bands[band - 1][:2])
        disks = inverse_whitehead(disks, bands, band, rng.randrange(counts[band]), near)
    return bands, marked, disks


def graph_doc(bands, disks) -> dict:
    counts = arc_counts(disks, bands)
    return {
        "host": rep_doc(len(disks), bands),
        "disks": [
            [{"point": True} if comp is None else {"comb": [{"arc_end": t} for t in comp]} for comp in comps]
            for comps in disks
        ],
        "arcs": [[b, p, counts[b] - 1 - p] for b in sorted(counts) for p in range(counts[b])],
    }


# (label, n, outer disks with both / one band marked, arcs, graphs per round).
# About half the fine 1-handles are marked, except in the dense stratum
# (29 of 32).  As many graphs sit below q5-120 as above it, so the median
# operation falls in the middle of that stratum, and the nearest-rank 90th
# percentile (the 38th of 42) falls among the eight q6-200 graphs.
QPIZE_STRATA = [
    ("q4-40", 4, 2, 5, 40, 8),
    ("q5-80", 5, 4, 8, 80, 8),
    ("q5-120", 5, 4, 8, 120, 10),
    ("q5-dense-100", 5, 13, 3, 100, 8),
    ("q6-200", 6, 6, 13, 200, 8),
]
