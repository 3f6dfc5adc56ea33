"""The edit primitive and the once-per-graph caches, against naive references.

The references below rebuild each graph edit by hand: they rescan the graph
for its arc ends and renumber every tooth of every disk through a per-edit
`renumber` closure.  They share no code with `graphcalc.edit_band`,
`graphcalc.whitehead_step` or `CombedGraph.arc_ends`.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from qpfiber.constructions import q_rep
from qpfiber.graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    FreeEnd,
    IsolatedPoint,
    Site,
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

from conftest import relisted


def naive_arc_end_locations(graph):
    """Per (band, side) the arc-end locations by slot, by a full rescan."""
    index = {}
    for disk, comps in enumerate(graph.disks, start=1):
        for ci, comp in enumerate(comps):
            if not isinstance(comp, Comb):
                continue
            for ti, tooth in enumerate(comp.teeth):
                if isinstance(tooth, ArcEnd):
                    band = graph.host.bands[tooth.band - 1]
                    side = "i" if disk == band.i else "j"
                    index.setdefault((tooth.band, side), []).append((tooth.slot, (disk, ci, ti)))
    return {key: [loc for _slot, loc in sorted(ends)] for key, ends in index.items()}


def naive_arc_count(graph, band):
    i_disk = graph.host.bands[band - 1].i
    return sum(
        1
        for comp in graph.disks[i_disk - 1]
        if isinstance(comp, Comb)
        for tooth in comp.teeth
        if isinstance(tooth, ArcEnd) and tooth.band == band
    )


def stranded_free_end(teeth, k):
    """Whether teeth[k] is a free end between two arc ends into one band."""
    below = [x for x in teeth[:k] if isinstance(x, ArcEnd)]
    above = [x for x in teeth[k + 1 :] if isinstance(x, ArcEnd)]
    return isinstance(teeth[k], FreeEnd) and bool(below and above) and below[-1].band == above[0].band


def naive_whitehead(graph, site):
    """The rebuild of a Whitehead move at an eligible site.

    With A the far comb of the kept arc and B that of the removed one, the
    merged comb holds A's teeth below the kept end, then B's below the
    removed end, then A's from the kept end on, then B's above the removed
    end; its arc ends are then the union of both but the removed one, sorted
    by (band, slot).  A free end left between two arc ends into one band
    moves to the top, one at a time.  The comb is listed where the
    lower-listed of A and B was.
    """
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
    _, a_ci, ta = index[(band, far_side)][r - 1 - p]
    _, b_ci, tb = index[(band, far_side)][r - 2 - p]
    low, high = sorted((a_ci, b_ci))
    disk_comps = graph.disks[far_disk - 1]
    part = {(0 if ti < ta else 2, ti): tooth for ti, tooth in enumerate(disk_comps[a_ci].teeth)}
    part.update(((1 if ti < tb else 3, ti), tooth) for ti, tooth in enumerate(disk_comps[b_ci].teeth) if ti != tb)
    teeth = [part[key] for key in sorted(part)]
    arc_ends = [tooth for tooth in teeth if isinstance(tooth, ArcEnd)]
    assert arc_ends == sorted(arc_ends, key=lambda tooth: (tooth.band, tooth.slot))
    while stranded := [k for k in range(len(teeth)) if stranded_free_end(teeth, k)]:
        teeth.append(teeth.pop(stranded[0]))
    merged = Comb(tuple(teeth))

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
            elif disk == far_disk and ci == low:
                row.append(Comb(tuple(renumber(x, disk) for x in merged.teeth)))
            elif disk == far_disk and ci == high:
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


def with_free_ends(graph, rng):
    """The same graph with a free end in about half its combs.

    A free end never goes between two arc ends into one band, where
    `validate` refuses it.
    """
    disks = []
    for comps in graph.disks:
        row = []
        for comp in comps:
            if isinstance(comp, Comb) and rng.random() < 0.5:
                teeth = list(comp.teeth)
                spots = [k for k in range(len(teeth) + 1)
                         if not stranded_free_end(teeth[:k] + [FreeEnd()] + teeth[k:], k)]
                teeth.insert(rng.choice(spots), FreeEnd())
                comp = Comb(tuple(teeth))
            row.append(comp)
        disks.append(tuple(row))
    return CombedGraph(graph.host, tuple(disks))


def nested_double(rng, graph):
    """Double a random arc so that the far combs of the two copies nest or stack.

    The copy sits just above the old arc end on the near side and just below
    it on the far side, as `naive_double` puts it without a split.  The far
    comb, with the copy at tooth m and the old end at m + 1, is then cut in
    two: the copy and a run of teeth below it nest in the rest, or the old
    end and a run of teeth above it do.  A cut that would leave a free end
    between two arc ends into one band is not taken; the two stacking cuts
    never do.  Returns the new graph and the Whitehead site that undoes the
    doubling.
    """
    band = rng.choice([t for t in range(1, graph.host.band_count() + 1) if naive_arc_count(graph, t)])
    r = naive_arc_count(graph, band)
    slot = rng.randrange(r)
    hostband = graph.host.bands[band - 1]
    near = rng.choice((hostband.i, hostband.j))
    doubled = naive_double(graph, band, slot, near, split=False)
    index = naive_arc_end_locations(doubled)
    far_disk, ci, m = index[(band, "j" if near == hostband.i else "i")][r - 1 - slot]
    teeth = doubled.disks[far_disk - 1][ci].teeth
    cuts = []
    for cut in range(m + 1):
        cuts.append((teeth[:cut] + teeth[m + 1 :], teeth[cut : m + 1]))
    for cut in range(m + 2, len(teeth) + 1):
        cuts.append((teeth[m + 1 : cut], teeth[: m + 1] + teeth[cut:]))
    cuts = [pair for pair in cuts
            if not any(stranded_free_end(part, k) for part in pair for k in range(len(part)))]
    old_comb, copy_comb = rng.choice(cuts)
    disks = list(doubled.disks)
    row = disks[far_disk - 1]
    disks[far_disk - 1] = row[:ci] + (Comb(old_comb), Comb(copy_comb)) + row[ci + 1 :]
    near_loc = index[(band, "i" if near == hostband.i else "j")][slot]
    return CombedGraph(graph.host, tuple(disks)), Site(*near_loc)


def nested_graph(seed):
    """A small full graph after a few nested doublings, relisted; free ends on odd seeds."""
    rng = random.Random(seed)
    graph = random_full_graph(rng)
    for _ in range(rng.randint(1, 3) if graph.total_arcs() else 0):
        graph, _site = nested_double(rng, graph)
    if seed % 2:
        graph = with_free_ends(graph, rng)
    return relisted(graph, rng)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_whitehead_step_matches_the_naive_rebuild(seed):
    for graph in (sampled_graph(seed)[1], nested_graph(seed)):
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
def test_whitehead_step_undoes_a_nested_doubling(seed):
    rng, graph = sampled_graph(seed)
    assume(graph.total_arcs())
    if seed % 3 == 0:
        graph = with_free_ends(graph, rng)
    doubled, site = nested_double(rng, graph)
    assert validate(doubled) == []
    assert neighborhood_summary(doubled) == neighborhood_summary(graph)
    assert whitehead_step(doubled, site) == naive_whitehead(doubled, site) == graph


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
    nested = nested_graph(seed)
    for current in (graph, reduce(graph), nested, reduce(nested)):
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
