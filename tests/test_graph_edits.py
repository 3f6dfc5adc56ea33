"""The graph edits and the once-per-graph caches, against naive references.

The references below rebuild each graph edit by hand: they rescan the graph
for its arc ends and renumber every tooth of every disk through a per-edit
`renumber` closure.  They share no code with the samplers' doubling
(`sampling._double_arc`), the arc-end numbering `graphcalc._Ends` and
`CombedGraph.arcs`, or the Whitehead moves of its working copy
`graphcalc._Working`.  The caches are compared by location, read off the
numbering here (`located_ends`, `located_pairing`).  Further tests check
every move of a reduction against a fresh graph, that the local checks of a
move catch deliberately faulty moves (the faulty merges act on the comb
lists of arc-end numbers that `graphcalc._merge_far_combs` takes and
returns), and that a doubling refuses arguments off the graph and checks
its result.
"""

import random
import re
from bisect import bisect_left
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpfiber import graphcalc, sampling
from qpfiber.braidcore import BandRepresentation, EmbeddedBand
from qpfiber.constructions import q_rep
from qpfiber.errors import InternalError, InvalidParameter, SiteNotEligible
from qpfiber.graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    FreeEnd,
    IsolatedPoint,
    Site,
    eligible_sites,
    is_full,
    neighborhood_summary,
    reduce,
    validate,
    whitehead_step,
)
from qpfiber.qpize import quasipositize
from qpfiber.sampling import (
    double_arc_bigon,
    inverse_whitehead,
    random_band_representation,
    random_direct_graph,
    random_fine_handle_subset,
    random_full_graph,
)
from qpfiber.surface import BraidedSurface, handle_spine

from conftest import free_end_reaches_boundary, relisted, with_free_ends


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
    merged comb holds, cyclically, B's teeth below the removed end, A's from
    the kept end on, A's below the kept end, then B's above the removed end.
    When A has teeth below the kept end and the removed end is B's last arc
    end, the listing starts with those teeth, else with B's below the
    removed end.  Its arc ends are then the union of both but the removed
    one, sorted by (band, slot), and no free end lies between two arc ends
    into one band.  The comb is listed where the lower-listed of A and B was.
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
    b_last = max(ti for ti, tooth in enumerate(disk_comps[b_ci].teeth) if isinstance(tooth, ArcEnd))
    # parts: 0 A below the kept end, 1 B below the removed end, 2 A from the kept end, 3 B above the removed end
    rank = (0, 2, 3, 1) if ta > 0 and tb == b_last else (2, 0, 1, 3)
    part = {(rank[0 if ti < ta else 2], ti): tooth for ti, tooth in enumerate(disk_comps[a_ci].teeth)}
    part.update(((rank[1 if ti < tb else 3], ti), tooth) for ti, tooth in enumerate(disk_comps[b_ci].teeth) if ti != tb)
    teeth = [part[key] for key in sorted(part)]
    arc_ends = [tooth for tooth in teeth if isinstance(tooth, ArcEnd)]
    assert arc_ends == sorted(arc_ends, key=lambda tooth: (tooth.band, tooth.slot))
    assert not any(stranded_free_end(teeth, k) for k in range(len(teeth)))
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


def nested_double(rng, graph):
    """Double a random arc so that the far combs of the two copies nest or stack.

    The copy sits just above the old arc end on the near side and just below
    it on the far side, as `naive_double` puts it without a split.  The far
    comb, with the copy at tooth m and the old end at m + 1, is then cut in
    two: the copy and a run of teeth below it nest in the rest, or the old
    end and a run of teeth above it do.  A cut that would leave a free end
    out of reach of host boundary (`free_end_reaches_boundary`) is not
    taken; cutting off the copy alone never does.  Returns the new graph and
    the Whitehead site that undoes the doubling.
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
    row = doubled.disks[far_disk - 1]
    rows = [row[:ci] + (Comb(old_comb), Comb(copy_comb)) + row[ci + 1 :] for old_comb, copy_comb in cuts]
    rows = [new for new in rows if all(
        free_end_reaches_boundary(new, cj, k)
        for cj in (ci, ci + 1) for k, tooth in enumerate(new[cj].teeth) if isinstance(tooth, FreeEnd))]
    disks = list(doubled.disks)
    disks[far_disk - 1] = rng.choice(rows)
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
                assert whitehead_step(graph, site) == want
            graph = whitehead_step(graph, sites[0])


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


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_the_read_out_skips_dead_ends_as_the_naive_pruning_removes_them(seed):
    rng = random.Random(seed)
    n = 2 + seed % 4
    graph = grown_spine(rng, n, rng.randint(0, 12))
    pruned = naive_prune_dead_ends(reduce(graph))
    assert quasipositize(n, graph).output == quasipositize(n, pruned).output


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_incidence_equals_a_scan_of_the_bands(seed):
    rep = random_band_representation(random.Random(seed), 6, 8) if seed % 2 else q_rep(2 + seed % 4)
    host = BraidedSurface(rep)
    incidence = host.incidence
    assert len(incidence) == host.strands
    pairs = [(t, side, disk) for disk, row in enumerate(incidence, start=1) for t, side in row.items()]
    assert sorted((t, side) for t, side, _disk in pairs) == [
        (t, side) for t in range(1, host.band_count() + 1) for side in ("i", "j")
    ]
    for t, side, disk in pairs:
        band = host.bands[t - 1]
        assert disk == (band.i if side == "i" else band.j)
    for disk, row in enumerate(incidence, start=1):
        assert list(row) == [t for t, band in enumerate(host.bands, start=1) if disk in (band.i, band.j)]


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_whitehead_step_refuses_exactly_the_triples_that_are_not_sites(seed):
    for graph in (sampled_graph(seed)[1], nested_graph(seed)):
        eligible = set(eligible_sites(graph))
        triples = [
            Site(disk, ci, ti)
            for disk, comps in enumerate(graph.disks, start=1)
            for ci, comp in enumerate(comps)
            for ti in range(len(comp.teeth) if isinstance(comp, Comb) else 1)
        ]
        for site in triples:
            if site in eligible:
                whitehead_step(graph, site)
            else:
                with pytest.raises(SiteNotEligible, match=re.escape(f"no eligible site at {site}:")):
                    whitehead_step(graph, site)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_arc_doubling_matches_the_naive_rebuild(seed):
    rng, graph = sampled_graph(seed)
    for _ in range(4):
        graph = random_double(rng, graph, split=True) or graph
    random_double(rng, graph, split=False)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_free_end_rule_matches_a_brute_force_placement(seed):
    rng, graph = sampled_graph(seed)
    assume(graph.total_arcs())
    for _ in range(rng.randint(1, 3)):
        graph, _site = nested_double(rng, graph)
    disks = []
    for comps in graph.disks:
        row = list(comps)
        for ci, comp in enumerate(comps):
            if isinstance(comp, Comb) and rng.random() < 0.5:
                k = rng.randint(0, len(comp.teeth))
                row[ci] = Comb(comp.teeth[:k] + (FreeEnd(),) + comp.teeth[k:])
        disks.append(tuple(row))
    graph = CombedGraph(graph.host, tuple(disks))
    problems = validate(graph)
    if any("cannot reach" not in problem for problem in problems):
        return  # a free end between two arc ends of its comb into one band, refused as such
    reach = all(
        free_end_reaches_boundary(comps, ci, k)
        for comps in graph.disks
        for ci, comp in enumerate(comps) if isinstance(comp, Comb)
        for k, tooth in enumerate(comp.teeth) if isinstance(tooth, FreeEnd)
    )
    assert (problems == []) == reach


def located_ends(graph):
    """Per (band, side) the arc-end locations by slot, read off the graph's numbering."""
    ends = graph._ends
    return {key: [ends.locs[x] for x in numbers] for key, numbers in ends.keys.items()}


def located_pairing(graph):
    """Each arc-end location to the location at the other end of its arc, read off the graph's numbering."""
    ends = graph._ends
    return {ends.locs[x]: ends.locs[ends.mate[x]] for x in range(len(ends.mate))}


def cached_views(graph):
    return (
        located_ends(graph),
        located_pairing(graph),
        validate(graph),
        [graph.arc_count(t) for t in range(1, graph.host.band_count() + 1)],
        graph.total_arcs(),
        graph.arcs(),
        neighborhood_summary(graph),
        is_full(graph),
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
        assert located_ends(current) == index
        counts = [naive_arc_count(current, t) for t in bands]
        assert twice[0][3] == counts
        assert current.total_arcs() == sum(counts)
        assert current.arcs() == [(t, p, counts[t - 1] - 1 - p) for t in bands for p in range(counts[t - 1])]
        assert validate(current) is not validate(current)  # a fresh list each call
        # the pairing: a fixed-point-free involution, i side to j side, as `arcs()` lists it
        mate = located_pairing(current)
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
    assert {"_ends", "_problems", "_summary", "_full"} <= vars(graph).keys()
    assert graph == twin and twin == graph
    assert (hash(graph), repr(graph)) == before == (hash(twin), repr(twin))
    assert graph.to_json() == twin.to_json()


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_every_edit_equals_a_fresh_graph(seed):
    # each move of a reduction on its working copy, frozen with the checks it took over, against a
    # fresh graph, the naive rebuild and a fresh working copy; spines grown by up to 60 doublings
    # give long chains of moves
    rng = random.Random(seed)
    if seed % 3 == 0:
        graph = random_direct_graph(rng, max_arcs=12)
        assume(validate(graph) == [] and is_full(graph))
    elif seed % 3 == 1:
        graph = grown_spine(rng, 3 + seed % 4, rng.randint(0, 60))
    else:
        graph = nested_graph(seed)
    summary = neighborhood_summary(graph)
    frozen = [graph]
    move = graphcalc._Working.move

    def checked(work, disk, label, ti):
        site = Site(disk, bisect_left(work.labels[disk - 1], label), ti)
        move(work, disk, label, ti)
        result = work.freeze(_problems=(), _summary=summary, _full=True)
        assert cached_views(result) == cached_views(CombedGraph(result.host, result.disks))
        assert result == naive_whitehead(frozen[-1], site)
        sites = eligible_sites(result)
        assert work.sites() == sites
        found = work.least_site()
        assert (found and Site(found[0], bisect_left(work.labels[found[0] - 1], found[1]), found[2])) == (
            sites[0] if sites else None
        )
        frozen.append(result)

    with patch.object(graphcalc._Working, "move", checked):
        reduced = reduce(graph)
    assert len(frozen) - 1 == graph.total_arcs() - reduced.total_arcs()
    assert frozen[-1] == reduced


def naive_reduction(graph):
    """Naive Whitehead moves at the least site, found by a scan of slots, until none is left."""
    trace = []
    while True:
        sites = [
            Site(disk, ci, ti)
            for disk, comps in enumerate(graph.disks, start=1)
            for ci, comp in enumerate(comps) if isinstance(comp, Comb)
            for ti, (x, y) in enumerate(zip(comp.teeth, comp.teeth[1:]))
            if isinstance(x, ArcEnd) and isinstance(y, ArcEnd) and x.band == y.band and y.slot == x.slot + 1
        ]
        if not sites:
            return graph, trace
        trace.append(sites[0])
        graph = naive_whitehead(graph, sites[0])


@pytest.mark.parametrize("n, moves", [(3, 40), (4, 90), (5, 160), (6, 250)])
def test_reduction_equals_the_naive_moves_on_grown_spines(n, moves):
    graph = grown_spine(random.Random(n), n, moves)
    assert graph.total_arcs() >= moves
    assert graphcalc.reduce_with_trace(graph) == naive_reduction(graph)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_reduction_equals_the_naive_moves_with_free_ends(seed):
    rng = random.Random(seed)
    graph = with_free_ends(random_full_graph(rng, max_strands=5, max_bands=6, max_arcs=20, expansions=10), rng)
    assert graphcalc.reduce_with_trace(graph) == naive_reduction(graph)


def counted_folds(monkeypatch) -> list:
    """The graphs that `CombedGraph._full` folds from here on, in order."""
    fold = CombedGraph.__dict__["_full"].func
    folded = []

    def counting(graph):
        folded.append(graph)
        return fold(graph)

    monkeypatch.setattr(CombedGraph.__dict__["_full"], "func", counting)
    return folded


@pytest.mark.parametrize("seed", range(6))
def test_a_reduction_folds_its_input_and_a_fresh_copy_of_its_result(seed, monkeypatch):
    rng = random.Random(seed)
    graph = grown_spine(rng, 4, rng.randint(4, 16))
    folded = counted_folds(monkeypatch)
    result, trace = graphcalc.reduce_with_trace(graph)
    assert trace and len(folded) == 2
    assert folded[0] is graph and folded[1] is result


@pytest.mark.parametrize("seed", range(6))
def test_a_quasipositization_numbers_and_traces_its_input_and_a_fresh_copy_of_its_result(seed, monkeypatch):
    # `_Working`, the copy the moves are made on, copies the input's numbering and builds none
    rng = random.Random(seed)
    grown = grown_spine(rng, 4, rng.randint(4, 16))
    graph = CombedGraph(grown.host, grown.disks)  # nothing cached
    ends, trace = graphcalc._Ends, graphcalc._trace_summary
    numbered, traced = [], []
    monkeypatch.setattr(graphcalc, "_Ends", lambda g: numbered.append(g) or ends(g))
    monkeypatch.setattr(graphcalc, "_trace_summary", lambda g: traced.append(g) or trace(g))
    result = quasipositize(4, graph)
    assert result.steps and len(numbered) == len(traced) == 2
    assert numbered[0] is traced[0] is graph
    assert numbered[1] is traced[1] and numbered[1] != graph


def test_a_whitehead_child_is_full_without_folding(monkeypatch):
    graph = grown_spine(random.Random(5), 4, 8)
    site = eligible_sites(graph)[0]
    folded = counted_folds(monkeypatch)
    child = whitehead_step(graph, site)
    assert folded == [graph]
    assert is_full(child) and is_full(graph) and folded == [graph]
    assert is_full(CombedGraph(child.host, child.disks)) and len(folded) == 2


def merged_comb_graph():
    """A full graph whose one site merges [(1,0), (2,0)] and [(2,1)] on disk 1."""
    host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, -1), EmbeddedBand(1, 2, -1))))
    return CombedGraph(host, (
        (Comb((ArcEnd(1, 0), ArcEnd(2, 0))), Comb((ArcEnd(2, 1),)), IsolatedPoint()),
        (Comb((ArcEnd(1, 0), ArcEnd(2, 0), ArcEnd(2, 1))),),
    ))


def arc_end_indices(teeth):
    """Positions of the arc ends in a comb given as arc-end numbers, -1 for a free end."""
    return [k for k, x in enumerate(teeth) if x >= 0]


def swap_two_arc_ends(teeth):
    k, m = arc_end_indices(teeth)[:2]
    teeth = list(teeth)
    teeth[k], teeth[m] = teeth[m], teeth[k]
    return teeth


def drop_an_arc_end(teeth):
    k = arc_end_indices(teeth)[-1]
    return teeth[:k] + teeth[k + 1 :]


@pytest.mark.parametrize("mutate", [swap_two_arc_ends, drop_an_arc_end])
def test_a_faulty_merge_is_caught(mutate, monkeypatch):
    graphs = [merged_comb_graph()] + [grown_spine(random.Random(seed), 3 + seed % 3, 6) for seed in range(12)]
    merge = graphcalc._merge_far_combs
    monkeypatch.setattr(graphcalc, "_merge_far_combs", lambda *args: mutate(merge(*args)))
    caught = 0
    for graph in graphs:
        for site in eligible_sites(graph):
            if len(arc_end_indices(merge(*far_combs(graph, site)))) >= 2:
                with pytest.raises(InternalError):
                    whitehead_step(graph, site)
                caught += 1
    assert caught


def test_a_merge_that_moves_a_free_end_out_of_its_face_is_caught(monkeypatch):
    # the merge puts the free end of B = [(2,0), free end] between A's (1,1) and (2,1); moved to the
    # top of the merged comb it would face only the attaching arc of band 2
    host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1))))
    graph = CombedGraph(host, (
        (Comb((ArcEnd(1, 0), ArcEnd(2, 1), ArcEnd(2, 2))), Comb((ArcEnd(1, 1),)), Comb((ArcEnd(2, 0),))),
        (Comb((ArcEnd(1, 0), ArcEnd(2, 2))), Comb((ArcEnd(1, 1), ArcEnd(2, 1))), Comb((ArcEnd(2, 0), FreeEnd()))),
    ))
    assert validate(graph) == [] and is_full(graph)
    merge = graphcalc._merge_far_combs

    def free_ends_on_top(*args):
        return sorted(merge(*args), key=lambda x: x < 0)

    monkeypatch.setattr(graphcalc, "_merge_far_combs", free_ends_on_top)
    with pytest.raises(InternalError, match="cannot be drawn"):
        whitehead_step(graph, Site(1, 0, 1))


def test_a_merge_that_moves_a_free_end_into_a_closed_gap_is_caught(monkeypatch):
    # B = [(2,0)] nests in the gap of A = [(1,0), free end, (2,1), (2,2)] that holds the free end;
    # moved one arc end up, the free end would lie between (2,1) and (2,2), adjacent slots of band 2
    host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1))))
    graph = CombedGraph(host, (
        (Comb((ArcEnd(1, 0), ArcEnd(2, 0))), Comb((ArcEnd(2, 1), ArcEnd(2, 2)))),
        (Comb((ArcEnd(1, 0), FreeEnd(), ArcEnd(2, 1), ArcEnd(2, 2))), Comb((ArcEnd(2, 0),))),
    ))
    assert validate(graph) == [] and is_full(graph)
    merged = Comb((ArcEnd(1, 0), FreeEnd(), ArcEnd(2, 0), ArcEnd(2, 1)))
    assert whitehead_step(graph, Site(1, 1, 0)).disks[1] == (merged,)
    merge = graphcalc._merge_far_combs

    def free_end_one_up(*args):
        teeth = merge(*args)
        k = teeth.index(-1)
        return teeth[:k] + teeth[k + 1 : k + 2] + [-1] + teeth[k + 2 :]

    monkeypatch.setattr(graphcalc, "_merge_far_combs", free_end_one_up)
    with pytest.raises(InternalError, match="cannot be drawn"):
        whitehead_step(graph, Site(1, 1, 0))


def test_stale_comb_labels_are_caught_at_the_step(monkeypatch):
    # the mutant stores the combs of a move but puts every arc end's comb label back, so the arc
    # ends of the higher-labelled far comb name a comb that is gone.  In a grown spine that is the
    # kept far end's comb; relisted, it is often the removed far end's, and then only the arc ends
    # after the removed one are stale, which only the face routing reads.  Where that comb held
    # the removed far end alone, no label goes stale and the move stands.
    replace = graphcalc._Working.replace
    changed = []

    def stale(work, disk, items):
        labels = list(work.comb)
        replace(work, disk, items)
        changed.append(work.comb != labels)
        work.comb[:] = labels

    monkeypatch.setattr(graphcalc._Working, "replace", stale)
    caught = 0
    for seed in range(40):
        rng = random.Random(seed)
        grown = grown_spine(rng, 3 + seed % 3, 6)
        for graph in (grown, relisted(grown, rng)):
            for site in eligible_sites(graph):
                changed.clear()
                try:
                    whitehead_step(graph, site)
                except InternalError:
                    caught += 1
                else:
                    assert changed == [False]
    assert caught


def far_combs(graph, site):
    """The arguments of `_merge_far_combs` at a site, as arc-end numbers: A's comb and kept end, B's and removed end."""
    ends = graph._ends
    t, u = ends.comps[site.disk - 1][site.component][site.tooth : site.tooth + 2]
    a, b = ends.mate[t], ends.mate[u]
    combs = ends.comps[ends.disk[a] - 1]
    a_comb, b_comb = combs[ends.comb[a]], combs[ends.comb[b]]
    return a_comb, a_comb.index(a), b_comb, b_comb.index(b)


def test_a_move_that_splits_the_graph_is_caught_by_the_face_routing(monkeypatch):
    # instead of merging the far combs, the mutant takes the removed end off its comb and
    # drops the isolated point: a valid graph with one arc and one component fewer, but
    # with the wrong neighborhood
    graph = merged_comb_graph()
    wrong = CombedGraph(graph.host, (
        (Comb((ArcEnd(1, 0),)), Comb((ArcEnd(2, 0),))),
        (Comb((ArcEnd(1, 0), ArcEnd(2, 0))),),
    ))
    assert validate(wrong) == [] and wrong.total_arcs() == graph.total_arcs() - 1
    assert sum(map(len, wrong.disks)) == sum(map(len, graph.disks)) - 1
    assert neighborhood_summary(CombedGraph(wrong.host, wrong.disks)) != neighborhood_summary(graph)
    replace = graphcalc._Working.replace

    def split(work, disk, items):  # on far disk 1, B (label 0) keeps its first tooth and the point (label 2) goes
        replace(work, disk, {0: work.comps[0][0][:1], 2: None} if disk == 1 else items)

    monkeypatch.setattr(graphcalc._Working, "replace", split)
    with pytest.raises(InternalError, match="neighborhood summary"):
        whitehead_step(graph, Site(2, 0, 1))


def doubling_host_graph():
    """The handle spine of S(q_3) on fine 1-handles 1, 2, 5 and 6: one arc each through those bands."""
    return handle_spine(BraidedSurface(q_rep(3)), [1, 2, 5, 6])


def refused_before_any_edit(band, slot, near_disk):
    graph = doubling_host_graph()
    for edit in (inverse_whitehead, double_arc_bigon):
        with patch.object(sampling, "validate", side_effect=AssertionError("a result was built")):
            with pytest.raises(InvalidParameter) as caught:
                edit(graph, band, slot, near_disk)
    return str(caught.value)


@pytest.mark.parametrize("band", [0, 9, -1, 1.0, "1", True])
def test_a_doubling_refuses_a_band_out_of_range(band):
    assert f"1-handle {band!r} is not an integer in 1..8" in refused_before_any_edit(band, 0, 1)


@pytest.mark.parametrize("near_disk", [0, 6, -1, 2, "1", True, 1.0, 5.0])
def test_a_doubling_refuses_a_near_disk_off_the_band(near_disk):
    # 1-handle 1 of q_rep(3) joins disks 1 and 5; disk 0 used to wrap around to disk 5, and True and 1.0
    # compare equal to disk 1
    assert "is not an end of 1-handle 1" in refused_before_any_edit(1, 0, near_disk)


@pytest.mark.parametrize("band, slot", [(1, -1), (1, 1), (1, 0.0), (1, False), (3, 0)])
def test_a_doubling_refuses_a_slot_out_of_range(band, slot):
    # slot -1 used to double the last arc; 1-handle 3 carries no arc
    assert f"slot {slot!r} is not an integer in 0.." in refused_before_any_edit(band, slot, 1)


def test_a_doubling_whose_result_fails_validation_raises_internal_error():
    graph = doubling_host_graph()
    assert inverse_whitehead(graph, 1, 0, 1).total_arcs() == graph.total_arcs() + 1
    for edit in (inverse_whitehead, double_arc_bigon):
        with patch.object(sampling, "validate", return_value=["a planted problem"]):
            with pytest.raises(InternalError, match="produced an invalid graph: .*a planted problem"):
                edit(graph, 1, 0, 1)
