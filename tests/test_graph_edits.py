"""The edit primitive and the once-per-graph caches, against naive references.

The references below are the rebuild code that each graph edit used to
carry: it rescans the graph for its arc ends and renumbers every tooth of
every disk through a per-edit `renumber` closure.  They share no code with
`graphcalc.edit_band` or `CombedGraph.arc_ends`.
"""

import random

from hypothesis import given, settings, strategies as st

from qpfiber.constructions import q_rep
from qpfiber.graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    IsolatedPoint,
    eligible_sites,
    neighborhood_summary,
    reduce,
    validate,
    whitehead_step,
)
from qpfiber.qpize import _prune_dead_ends
from qpfiber.sampling import (
    double_arc_bigon,
    inverse_whitehead,
    random_fine_handle_subset,
    random_full_graph,
)
from qpfiber.surface import BraidedSurface, handle_spine


def naive_arc_end_locations(graph):
    """Per (band, side) the arc-end locations bottom to top, by a full rescan."""
    index = {}
    for disk, comps in enumerate(graph.disks, start=1):
        for ci, comp in enumerate(comps):
            if not isinstance(comp, Comb):
                continue
            for ti, tooth in enumerate(comp.teeth):
                if isinstance(tooth, ArcEnd):
                    band = graph.host.bands[tooth.band - 1]
                    side = "i" if disk == band.i else "j"
                    index.setdefault((tooth.band, side), []).append((disk, ci, ti))
    return index


def naive_arc_count(graph, band):
    i_disk = graph.host.bands[band - 1].i
    return sum(
        1
        for comp in graph.disks[i_disk - 1]
        if isinstance(comp, Comb)
        for tooth in comp.teeth
        if isinstance(tooth, ArcEnd) and tooth.band == band
    )


def naive_whitehead(graph, site):
    """The rebuild of a Whitehead move at an eligible site."""
    comp = graph.disks[site.disk - 1][site.component]
    band = comp.teeth[site.tooth].band
    p = comp.teeth[site.tooth].slot
    r = naive_arc_count(graph, band)
    hostband = graph.host.bands[band - 1]
    near_disk = site.disk
    far_disk = hostband.j if near_disk == hostband.i else hostband.i
    index = naive_arc_end_locations(graph)
    near_side = "i" if near_disk == hostband.i else "j"
    far_side = "j" if near_side == "i" else "i"
    keep_far = index[(band, far_side)][r - 1 - p]
    drop_far = index[(band, far_side)][r - 2 - p]
    comb_b_idx, comb_a_idx = drop_far[1], keep_far[1]
    disk_comps = list(graph.disks[far_disk - 1])
    merged = Comb(tuple(disk_comps[comb_b_idx].teeth[:-1]) + tuple(disk_comps[comb_a_idx].teeth))

    def renumber(tooth, disk):
        if not isinstance(tooth, ArcEnd) or tooth.band != band:
            return tooth
        side = "i" if disk == hostband.i else "j"
        gone = p + 1 if side == near_side else r - 2 - p
        return ArcEnd(band, tooth.slot - 1 if tooth.slot > gone else tooth.slot)

    new_disks = []
    for disk, comps in enumerate(graph.disks, start=1):
        row = []
        for ci, item in enumerate(comps):
            if disk == near_disk and ci == site.component:
                teeth = tuple(x for ti, x in enumerate(item.teeth) if ti != site.tooth + 1)
                row.append(Comb(tuple(renumber(x, disk) for x in teeth)))
            elif disk == far_disk and ci == comb_b_idx:
                row.append(Comb(tuple(renumber(x, disk) for x in merged.teeth)))
            elif disk == far_disk and ci == comb_a_idx:
                continue
            elif isinstance(item, Comb):
                row.append(Comb(tuple(renumber(x, disk) for x in item.teeth)))
            else:
                row.append(item)
        new_disks.append(tuple(row))
    return CombedGraph(graph.host, tuple(new_disks))


def naive_prune_dead_ends(graph):
    """Retract one-tooth combs on disks >= 2, one at a time, until none is left."""
    current = graph
    while True:
        target = None
        for disk in range(2, len(current.disks) + 1):
            for ci, comp in enumerate(current.disks[disk - 1]):
                if isinstance(comp, Comb) and len(comp.teeth) == 1:
                    target = (disk, ci, comp.teeth[0])
                    break
            if target:
                break
        if target is None:
            return current
        disk_r, ci_r, tooth = target
        band = tooth.band
        r = naive_arc_count(current, band)
        index = naive_arc_end_locations(current)
        hostband = current.host.bands[band - 1]
        far_side = "i" if disk_r == hostband.i else "j"
        near_side = "j" if far_side == "i" else "i"
        near_loc = index[(band, near_side)][r - 1 - tooth.slot]
        near_gone = r - 1 - tooth.slot
        far_gone = tooth.slot

        def renumber(item, disk):
            if not isinstance(item, ArcEnd) or item.band != band:
                return item
            side = "i" if disk == hostband.i else "j"
            gone = near_gone if side == near_side else far_gone
            return ArcEnd(band, item.slot - 1 if item.slot > gone else item.slot)

        new_disks = []
        for disk, comps in enumerate(current.disks, start=1):
            row = []
            for ci, comp in enumerate(comps):
                if (disk, ci) == (disk_r, ci_r):
                    continue
                if not isinstance(comp, Comb):
                    row.append(comp)
                    continue
                teeth = list(comp.teeth)
                if (disk, ci) == (near_loc[0], near_loc[1]):
                    del teeth[near_loc[2]]
                teeth = [renumber(x, disk) for x in teeth]
                row.append(Comb(tuple(teeth)) if teeth else IsolatedPoint())
            new_disks.append(tuple(row))
        current = CombedGraph(current.host, tuple(new_disks))


def naive_double(graph, band, slot, near_disk, split):
    """Double an arc; split the far comb (inverse Whitehead) or not (bigon)."""
    hostband = graph.host.bands[band - 1]
    near_side = "i" if near_disk == hostband.i else "j"
    far_side = "j" if near_side == "i" else "i"
    index = naive_arc_end_locations(graph)
    r = naive_arc_count(graph, band)
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
                if split:
                    row.append(Comb(tuple(teeth[: far_loc[2]] + [new_far])))
                    teeth = teeth[far_loc[2] :]
                else:
                    teeth.insert(far_loc[2], new_far)
            row.append(Comb(tuple(teeth)))
        new_disks.append(tuple(row))
    return CombedGraph(graph.host, tuple(new_disks))


def grown_spine(rng, n, moves):
    """A handle spine of S(q_n) on a random subset, grown by inverse Whitehead moves."""
    graph = handle_spine(BraidedSurface(q_rep(n)), random_fine_handle_subset(rng, 2 * (n - 1) ** 2))
    for _ in range(moves):
        graph = random_double(rng, graph, split=True) or graph
    return graph


def random_double(rng, graph, split):
    bands = [t for t in range(1, graph.host.band_count() + 1) if naive_arc_count(graph, t)]
    if not bands:
        return None
    band = rng.choice(bands)
    slot = rng.randrange(naive_arc_count(graph, band))
    hostband = graph.host.bands[band - 1]
    near = rng.choice((hostband.i, hostband.j))
    edit = inverse_whitehead if split else double_arc_bigon
    got = edit(graph, band, slot, near)
    assert got == naive_double(graph, band, slot, near, split)
    return got


def sampled_graph(seed):
    rng = random.Random(seed)
    if seed % 2:
        return rng, random_full_graph(rng, max_strands=5, max_bands=6, max_arcs=20, expansions=8)
    return rng, grown_spine(rng, 3 + seed % 4 // 2, rng.randint(0, 10))


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_whitehead_step_matches_the_naive_rebuild(seed):
    _, graph = sampled_graph(seed)
    while True:
        sites = eligible_sites(graph)
        if not sites:
            break
        for site in sites:
            want = naive_whitehead(graph, site)
            assert whitehead_step(graph, site, check_full=False) == want
        graph = whitehead_step(graph, sites[0], check_full=False)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_dead_end_pruning_matches_the_naive_rebuild(seed):
    _, graph = sampled_graph(seed)
    for candidate in (graph, reduce(graph)):
        assert _prune_dead_ends(candidate) == naive_prune_dead_ends(candidate)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_arc_doubling_matches_the_naive_rebuild(seed):
    rng, graph = sampled_graph(seed)
    for _ in range(4):
        graph = random_double(rng, graph, split=True) or graph
    random_double(rng, graph, split=False)


def cached_views(graph):
    return (
        dict(graph.arc_ends),
        dict(graph.mate),
        validate(graph),
        [graph.arc_count(t) for t in range(1, graph.host.band_count() + 1)],
        graph.total_arcs(),
        graph.arcs(),
        neighborhood_summary(graph),
    )


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_caches_equal_a_fresh_rescan(seed):
    _, graph = sampled_graph(seed)
    for current in (graph, reduce(graph)):
        bands = range(1, current.host.band_count() + 1)
        index = naive_arc_end_locations(current)
        fresh = CombedGraph(current.host, current.disks)
        twice = cached_views(current), cached_views(current)
        assert twice[0] == twice[1] == cached_views(fresh)
        assert {key: list(locs) for key, locs in current.arc_ends.items()} == index
        counts = [naive_arc_count(current, t) for t in bands]
        assert twice[0][3] == counts
        assert current.total_arcs() == sum(counts)
        assert current.arcs() == [(t, p, counts[t - 1] - 1 - p) for t in bands for p in range(counts[t - 1])]
        assert validate(current) is not validate(current)  # a fresh list each call
        # the pairing: a fixed-point-free involution, i side to j side, as `arcs()` lists it
        mate = current.mate
        assert sorted(mate) == sorted(loc for locs in index.values() for loc in locs)
        for loc, far in mate.items():
            assert far != loc and mate[far] == loc
        for (band, side), locs in index.items():
            other = index[(band, "j" if side == "i" else "i")]
            assert all(mate[loc] in other for loc in locs)
        for band, p, q in current.arcs():
            assert mate[index[(band, "i")][p]] == index[(band, "j")][q]


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_caching_keeps_equality_hash_and_json(seed):
    _, sampled = sampled_graph(seed)
    graph, twin = CombedGraph(sampled.host, sampled.disks), CombedGraph(sampled.host, sampled.disks)
    before = hash(graph), repr(graph)
    cached_views(graph)
    assert {"arc_ends", "mate", "_problems", "_summary"} <= vars(graph).keys()
    assert graph == twin and twin == graph
    assert (hash(graph), repr(graph)) == before == (hash(twin), repr(twin))
    assert graph.to_json() == twin.to_json()
