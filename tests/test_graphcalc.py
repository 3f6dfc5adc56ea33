import io
import json
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpfiber import graphcalc
from qpfiber.braidcore import BandRepresentation, EmbeddedBand
from qpfiber.cli import run
from qpfiber.errors import InvalidGraph, InvalidParameter, NotFull, SiteNotEligible
from qpfiber.graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    FreeEnd,
    IsolatedPoint,
    Site,
    cycle_words,
    eligible_sites,
    is_full,
    neighborhood_summary,
    reduce,
    reduce_with_trace,
    validate,
    whitehead_step,
)
from qpfiber.sampling import (
    double_arc_bigon,
    inverse_whitehead,
    random_direct_graph,
    random_full_graph,
    random_graph_mixed_fullness,
)
from qpfiber.selfcheck import _bruteforce_is_full
from qpfiber.surface import BraidedSurface, SurfaceSummary, handle_spine, summary

from conftest import relisted


HOPF_HOST = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1))))


def spine(rep, selected=None):
    surface = BraidedSurface(rep)
    if selected is None:
        selected = range(1, len(rep.bands) + 1)
    return handle_spine(surface, selected)


def bigon():
    return CombedGraph(
        HOPF_HOST,
        (
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
        ),
    )


def three_arc_example():
    """Spec's move site on S(q_2): three arcs, one eligible pair."""
    return CombedGraph(
        HOPF_HOST,
        (
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1), ArcEnd(2, 0))),),
            (Comb((ArcEnd(1, 0),)), Comb((ArcEnd(1, 1), ArcEnd(2, 0)))),
        ),
    )


class TestValidate:
    def test_spines_validate(self):
        assert validate(spine(HOPF_HOST.rep)) == []

    def test_dangling_slot(self):
        g = CombedGraph(
            HOPF_HOST,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0))),),
                (Comb((ArcEnd(1, 1), ArcEnd(2, 0))),),  # slot 1 unmatched on side i
            ),
        )
        assert validate(g)

    def test_side_mismatch(self):
        g = CombedGraph(
            HOPF_HOST,
            (
                (Comb((ArcEnd(1, 0),)),),
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
            ),
        )
        assert any("arc ends" in p for p in validate(g))

    def test_wrong_disk(self):
        host = BraidedSurface(BandRepresentation(3, (EmbeddedBand(1, 2, 1),)))
        g = CombedGraph(
            host,
            ((Comb((ArcEnd(1, 0),)),), (IsolatedPoint(),), (Comb((ArcEnd(1, 0),)),)),
        )
        assert any("joining" in p for p in validate(g))

    def test_tooth_problems_in_listing_order(self):
        host = BraidedSurface(BandRepresentation(3, (EmbeddedBand(1, 2, 1),)))
        disks = (
            (Comb((ArcEnd(1, 0), "tooth", ArcEnd(5, 0))), "blob"),
            (Comb(()), IsolatedPoint()),
            (Comb((ArcEnd(1, 0), FreeEnd())),),
        )
        g = CombedGraph(host, disks)
        assert validate(g) == [
            "disk 1 component 0 tooth 1 has unknown type",
            "tooth references 1-handle 5 outside 1..1",
            "disk 1 component 1 is not a comb or point",
            "disk 2 component 0 is an empty comb",
            "disk 3 tooth enters 1-handle 1 joining 1,2",
        ]
        assert g.has_free_ends()
        short = CombedGraph(host, disks[:2])
        assert validate(short) == ["graph lists 2 disks for a 3-strand host"] and not short.has_free_ends()

    def test_split_tooth_run(self):
        host = BraidedSurface(
            BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1)))
        )
        g = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0), ArcEnd(1, 1))),),
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1), ArcEnd(2, 0))),),
            ),
        )
        assert any("not consecutive" in p for p in validate(g))

    def test_free_end_between_teeth_into_one_band(self):
        host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1),)))
        g = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), FreeEnd(), ArcEnd(1, 1))),),
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
            ),
        )
        assert any("not consecutive" in p for p in validate(g))

    def test_comb_out_of_boundary_order(self):
        g = CombedGraph(
            HOPF_HOST,
            (
                (Comb((ArcEnd(2, 0), ArcEnd(1, 0))),),
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0))),),
            ),
        )
        assert any("out of (1-handle, slot) order" in p for p in validate(g))

    def test_crossing_combs(self):
        g = CombedGraph(
            HOPF_HOST,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0))), Comb((ArcEnd(1, 1), ArcEnd(2, 1)))),
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1), ArcEnd(2, 0), ArcEnd(2, 1))),),
            ),
        )
        assert any("cross" in p for p in validate(g))

    def test_nested_combs_allowed(self):
        host = BraidedSurface(
            BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1)))
        )
        g = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(3, 0))), Comb((ArcEnd(2, 0),))),
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0), ArcEnd(3, 0))),),
            ),
        )
        assert validate(g) == []
        assert is_full(g)

    def test_free_ends_allowed(self):
        host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1),)))
        g = CombedGraph(
            host,
            (
                (Comb((FreeEnd(), ArcEnd(1, 0), FreeEnd())),),
                (Comb((ArcEnd(1, 0),)),),
            ),
        )
        assert validate(g) == []
        assert neighborhood_summary(g).components == ((1, 1),)


class TestNeighborhoodSummary:
    def test_isolated_point(self):
        host = BraidedSurface(BandRepresentation(1, ()))
        g = CombedGraph(host, ((IsolatedPoint(),),))
        assert neighborhood_summary(g).components == ((1, 1),)

    def test_hopf_spine(self):
        g = spine(HOPF_HOST.rep)
        assert neighborhood_summary(g).components == ((0, 2),)

    def test_full_spines_match_summary(self):
        from qpfiber.constructions import nabla

        for rep in (nabla(3), nabla(4)):
            g = spine(rep)
            assert neighborhood_summary(g) == summary(BraidedSurface(rep))


class TestCycleWords:
    def test_forest_has_no_cycles(self):
        host = BraidedSurface(BandRepresentation(3, (EmbeddedBand(1, 2, 1), EmbeddedBand(2, 3, 1))))
        assert cycle_words(spine(host.rep)) == []

    def test_bigon_word_is_trivial(self):
        assert cycle_words(bigon()) == [[]]

    def test_hopf_spine_word_is_nontrivial(self):
        words = cycle_words(spine(HOPF_HOST.rep))
        assert len(words) == 1 and words[0]

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=16))
    def test_cyclic_reduction_matches_repeated_cancellation(self, word):
        # reference: delete the first adjacent inverse pair, else an inverse first and last, until none is left
        want = list(word)
        while True:
            pairs = [(k, k + 1) for k in range(len(want) - 1)]
            if len(want) >= 2:
                pairs.append((0, len(want) - 1))
            hit = next(((a, b) for a, b in pairs if want[a] == (want[b][0], -want[b][1])), None)
            if hit is None:
                break
            del want[hit[1]], want[hit[0]]
        assert graphcalc._cyclic_reduce(word) == want


class TestIsFull:
    def test_spines_are_full(self):
        assert is_full(spine(HOPF_HOST.rep))

    def test_bigon_is_not_full(self):
        assert not is_full(bigon())

    def test_isolated_points_are_full(self):
        host = BraidedSurface(BandRepresentation(3, ()))
        g = CombedGraph(host, ((IsolatedPoint(),), (IsolatedPoint(),), (IsolatedPoint(),)))
        assert is_full(g)

    def test_doubled_bigons_are_not_full(self):
        g = spine(HOPF_HOST.rep)
        for _ in range(4):
            g = double_arc_bigon(g, 1, 0, 1)
            g = double_arc_bigon(g, 2, 0, 2)
        assert not is_full(g)  # parallel doubled arcs cobound disks

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_agrees_with_brute_force_on_mixed_graphs(self, seed):
        g = random_graph_mixed_fullness(random.Random(seed))
        assert is_full(g) == _bruteforce_is_full(g)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_agrees_with_brute_force_on_direct_graphs(self, seed):
        g = random_direct_graph(random.Random(seed), max_arcs=12)
        assume(validate(g) == [])
        assert g.total_arcs() <= 12
        assert is_full(g) == _bruteforce_is_full(g)

    def test_brute_force_reads_no_arc_end_numbering(self, monkeypatch):
        # the oracle must share no numbering with folding: it sees fresh copies, with `_Ends` unusable
        rng = random.Random(23)
        graphs = [random_graph_mixed_fullness(rng) for _ in range(60)]
        graphs += [g for g in (random_direct_graph(rng, max_arcs=10) for _ in range(60)) if not validate(g)]
        verdicts = [is_full(g) for g in graphs]
        assert any(verdicts) and not all(verdicts)

        def unusable(graph):
            raise AssertionError("the brute-force oracle numbered the arc ends")

        monkeypatch.setattr(graphcalc, "_Ends", unusable)
        assert [_bruteforce_is_full(CombedGraph(g.host, g.disks)) for g in graphs] == verdicts


class TestNodeNumbering:
    """Node numbers (a disk's offset plus the component's index) where disks hold little.

    The summaries are counted by hand.  A point, or a comb with no arc end,
    is a disk: (1, 1).  A tree of combs and arcs is a disk too.  Two arcs
    through two bands of one sign between the same two combs bound an
    annulus with two boundary circles: (0, 2).  Each graph is compared on a
    fresh copy, with fullness also decided by the brute-force oracle.
    """

    def check(self, graph, components, full=True):
        fresh = CombedGraph(graph.host, graph.disks)
        assert validate(fresh) == []
        assert fresh._ends.node_count == sum(map(len, graph.disks))
        assert neighborhood_summary(fresh) == SurfaceSummary(sum(chi for chi, _ in components), components)
        assert is_full(fresh) == _bruteforce_is_full(CombedGraph(graph.host, graph.disks)) == full

    def test_isolated_points(self):
        self.check(CombedGraph(HOPF_HOST, ((IsolatedPoint(), IsolatedPoint()), (IsolatedPoint(),))), [(1, 1)] * 3)

    def test_isolated_points_around_an_arc(self):
        # nodes 0 and 2 are points, the arc joins node 1 to node 3
        graph = CombedGraph(HOPF_HOST, (
            (IsolatedPoint(), Comb((ArcEnd(1, 0),)), IsolatedPoint()),
            (Comb((ArcEnd(1, 0),)),),
        ))
        self.check(graph, [(1, 1)] * 3)

    def test_combs_whose_teeth_are_all_free_ends(self):
        graph = CombedGraph(HOPF_HOST, (
            (Comb((FreeEnd(),)), Comb((ArcEnd(1, 0), ArcEnd(2, 0)))),
            (Comb((FreeEnd(), FreeEnd())), Comb((ArcEnd(1, 0), ArcEnd(2, 0)))),
        ))
        self.check(graph, [(1, 1), (1, 1), (0, 2)])
        bigon_and_free = CombedGraph(HOPF_HOST, (
            (Comb((ArcEnd(1, 0), ArcEnd(1, 1))), Comb((FreeEnd(),))),
            (Comb((FreeEnd(),)), Comb((ArcEnd(1, 0), ArcEnd(1, 1)))),
        ))
        self.check(bigon_and_free, [(1, 1), (1, 1), (0, 2)], full=False)

    def test_disks_with_no_component(self):
        host = BraidedSurface(BandRepresentation(3, (EmbeddedBand(1, 2, 1), EmbeddedBand(2, 3, 1))))
        self.check(CombedGraph(host, ((), (), ())), [])
        graph = CombedGraph(host, ((), (Comb((ArcEnd(2, 0),)), IsolatedPoint()), (Comb((ArcEnd(2, 0),)),)))
        self.check(graph, [(1, 1), (1, 1)])
        graph = CombedGraph(host, ((Comb((ArcEnd(1, 0),)),), (Comb((ArcEnd(1, 0),)),), ()))
        self.check(graph, [(1, 1)])

    def test_stray_points_on_middle_disks(self):
        # 1-handles 1 and 5 of q_rep(3) both join disks 1 and 5 positively; disks 2, 3 and 4 hold points
        from qpfiber.constructions import q_rep
        from qpfiber.qpize import quasipositize

        graph = spine(q_rep(3), [1, 5])
        disks = list(graph.disks)
        disks[1] += (IsolatedPoint(),)
        disks[4] += (IsolatedPoint(),)
        graph = CombedGraph(graph.host, tuple(disks))
        components = [(0, 2)] + [(1, 1)] * 5
        self.check(graph, components)
        assert quasipositize(3, graph).output_summary == SurfaceSummary(5, components)


class TestWhiteheadStep:
    def test_spec_example(self):
        g = three_arc_example()
        before = neighborhood_summary(g)
        assert before.components == ((0, 2),)
        result = whitehead_step(g, Site(1, 0, 0))
        assert result.total_arcs() == 2
        assert neighborhood_summary(result) == before
        assert is_full(result)

    def test_non_adjacent_site_rejected(self):
        g = three_arc_example()
        with pytest.raises(SiteNotEligible):
            whitehead_step(g, Site(1, 0, 1))  # teeth 1,2 enter different bands

    def test_bigon_rejected(self):
        with pytest.raises(NotFull):
            whitehead_step(bigon(), Site(1, 0, 0))

    def test_point_site_rejected(self):
        host = BraidedSurface(BandRepresentation(2, ()))
        g = CombedGraph(host, ((IsolatedPoint(),), (IsolatedPoint(),)))
        with pytest.raises(SiteNotEligible):
            whitehead_step(g, Site(1, 0, 0))

    @pytest.mark.parametrize(
        "site", [Site(1, -1, 0), Site(1, 0, -3), Site(-1, 0, 0), Site(0, 0, 0), Site(3, 0, 0), Site(1, 1, 0)]
    )
    def test_out_of_range_site_rejected(self, site):
        with pytest.raises(SiteNotEligible):
            whitehead_step(three_arc_example(), site)

    @pytest.mark.parametrize(
        "fields", [(1.0, 0, 0), (1, 0, 0.0), (1, 0.0, 0), (True, 0, 0), (1, False, 0), (1, 0, "0")]
    )
    def test_a_site_refuses_a_field_that_is_not_an_int(self, fields):
        with pytest.raises(InvalidParameter, match="must hold three integers"):
            Site(*fields)

    def test_disk_zero_is_not_the_last_disk(self):
        g = inverse_whitehead(spine(HOPF_HOST.rep), 1, 0, 2)
        assert eligible_sites(g) == [Site(2, 0, 0)]
        with pytest.raises(SiteNotEligible):
            whitehead_step(g, Site(0, 0, 0))


class TestReduce:
    def test_fixed_point_returned_unchanged(self):
        g = spine(HOPF_HOST.rep)
        assert reduce(g) == g

    def test_single_step_example(self):
        g = three_arc_example()
        reduced, trace = reduce_with_trace(g)
        assert reduced.total_arcs() == 2
        assert len(trace) == 1
        assert not eligible_sites(reduced)

    def test_two_independent_sites(self):
        g = spine(HOPF_HOST.rep)
        g = inverse_whitehead(g, 1, 0, 1)
        g = inverse_whitehead(g, 2, 0, 2)
        assert len(eligible_sites(g)) == 2
        before = neighborhood_summary(g)
        reduced, trace = reduce_with_trace(g)
        assert len(trace) == 2
        assert reduced.total_arcs() == g.total_arcs() - 2
        assert neighborhood_summary(reduced) == before

    def test_not_full_rejected(self):
        with pytest.raises(NotFull):
            reduce(bigon())

    def test_random_graphs_round_trip(self, rng):
        for _ in range(60):
            g = random_full_graph(rng)
            before = neighborhood_summary(g)
            reduced, trace = reduce_with_trace(g)
            assert len(trace) <= g.total_arcs()
            assert neighborhood_summary(reduced) == before
            assert is_full(reduced)
            assert not eligible_sites(reduced)

    def test_reduction_takes_over_the_fresh_copys_numbering(self, rng):
        changed = 0
        for _ in range(40):
            g = with_free_ends(random_full_graph(rng), rng)
            if validate(g):
                continue
            reduced = reduce(g)
            if reduced is g:
                continue
            changed += 1
            assert "_ends" in vars(reduced)  # numbered before the read-out asks
            parsed = CombedGraph.from_json(reduced.to_json())
            ends, fresh = reduced._ends, parsed._ends
            assert (ends.keys, ends.locs, ends.mate) == (fresh.keys, fresh.locs, fresh.mate)
        assert changed > 10


def with_free_ends(graph, rng):
    """The same graph with free ends put into some combs at random teeth."""
    disks = []
    for comps in graph.disks:
        row = []
        for comp in comps:
            if isinstance(comp, Comb) and rng.random() < 0.3:
                teeth = list(comp.teeth)
                teeth.insert(rng.randint(0, len(teeth)), FreeEnd())
                comp = Comb(tuple(teeth))
            row.append(comp)
        disks.append(tuple(row))
    return CombedGraph(graph.host, tuple(disks))


def assert_reduces(graph):
    """`reduce` keeps the summary and fullness and leaves no eligible site."""
    reduced = reduce(graph)
    assert neighborhood_summary(reduced) == neighborhood_summary(graph)
    assert is_full(reduced)
    assert not eligible_sites(reduced)
    return reduced


class TestNestedCombs:
    """A slot is a boundary position: combs may nest, and listing order means nothing."""

    def test_direct_sweep_reduces(self):
        # includes 25 full graphs that reach a Whitehead site whose far combs nest
        rng = random.Random(21)
        full = 0
        for _ in range(3000):
            g = random_direct_graph(rng, max_arcs=10)
            if validate(g) or not is_full(g):
                continue
            full += 1
            assert_reduces(g)
        assert full == 839

    def test_far_comb_nested_in_the_other(self):
        # on disk 2 the kept far end (1,1) nests between the removed one (1,0) and (2,0)
        host = BraidedSurface(
            BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, -1), EmbeddedBand(1, 2, -1)))
        )
        g = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1))), Comb((ArcEnd(2, 0),))),
                (Comb((ArcEnd(1, 0), ArcEnd(2, 0))), Comb((ArcEnd(1, 1),))),
            ),
        )
        reduced = assert_reduces(g)
        assert reduced.disks[1] == (Comb((ArcEnd(1, 0), ArcEnd(2, 0))),)

    def test_annulus_nesting_states_in_any_listing(self):
        # two parallel cores of the annulus: on each disk one comb nests inside the other
        host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1))))
        outer, inner = Comb((ArcEnd(1, 0), ArcEnd(2, 1))), Comb((ArcEnd(1, 1), ArcEnd(2, 0)))
        for first in ((outer, inner), (inner, outer)):
            for second in ((outer, inner), (inner, outer)):
                g = CombedGraph(host, (first, second))
                assert validate(g) == []
                assert neighborhood_summary(g).components == ((0, 2), (0, 2))
                assert is_full(g)

    def test_teeth_around_a_nested_comb_are_no_site(self):
        host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1),)))
        g = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(1, 2))), Comb((ArcEnd(1, 1),))),
                tuple(Comb((ArcEnd(1, slot),)) for slot in range(3)),
            ),
        )
        assert is_full(g)
        assert eligible_sites(g) == []
        assert reduce(g) == g

    @pytest.mark.parametrize(
        "bands, disks",
        [
            # on disk 2 the free end faces the stretches from slot 0 to 1 and from
            # 1 to 2, inside the attaching arc of band 1
            (
                ((1, 2, 1),),
                (
                    tuple(Comb((ArcEnd(1, slot),)) for slot in range(3)),
                    (Comb((ArcEnd(1, 0), ArcEnd(1, 2))), Comb((ArcEnd(1, 1), FreeEnd()))),
                ),
            ),
            (
                ((1, 2, 1),),
                (
                    (Comb((ArcEnd(1, 0),)), Comb((ArcEnd(1, 1), ArcEnd(1, 2)))),
                    (Comb((ArcEnd(1, 0), ArcEnd(1, 2))), Comb((ArcEnd(1, 1), FreeEnd()))),
                ),
            ),
            # on disk 2 the free end between (1,0) and (2,1) faces the stretches from
            # (1,0) to (1,1) and from (2,0) to (2,1), each inside one attaching arc
            (
                ((1, 2, 1), (1, 2, 1)),
                (
                    (Comb((ArcEnd(1, 0),)), Comb((ArcEnd(1, 1),)), Comb((ArcEnd(2, 0), ArcEnd(2, 1)))),
                    (Comb((ArcEnd(1, 0), FreeEnd(), ArcEnd(2, 1))), Comb((ArcEnd(1, 1), ArcEnd(2, 0)))),
                ),
            ),
        ],
        ids=["item-5", "one-band", "two-bands"],
    )
    def test_unreachable_free_end_is_refused(self, bands, disks, capsys, monkeypatch):
        host = BraidedSurface(BandRepresentation(2, tuple(EmbeddedBand(*band) for band in bands)))
        g = CombedGraph(host, disks)
        assert [p for p in validate(g) if "cannot reach the host boundary" in p] == validate(g) != []
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(g.to_json())))
        assert run(["reduce", "--input", "-"]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "malformed-input"

    def test_free_end_reach_is_checked_in_linear_time(self):
        # k bands from disk 1 to disk 2, each with two arcs: 3,000 arcs.  On disk 1 one-tooth combs
        # [free, (t,s)] sit side by side in the gap of [(1,0), (k,1)].  On disk 2 the combs
        # [free, (d,0), (k+1-d,1), free] nest d deep, the gap of each also holding [free, (d,1)] and
        # [(k+1-d,0), free]; the innermost gap holds the other arc ends, one-tooth combs side by side.
        # Each free end lies around its comb, in a gap that meets host boundary.  A walk over the
        # siblings of each comb, as a Whitehead move's `_around` makes for one comb, takes seconds here.
        k, depth = 1500, 10

        def comb(*teeth):  # None for a free end
            return {"comb": [{"free_end": True} if end is None else {"arc_end": list(end)} for end in teeth]}

        ends = [(t, s) for t in range(1, k + 1) for s in (0, 1)]
        side_by_side = [comb(ends[0], ends[-1])] + [comb(None, end) for end in ends[1:-1]]
        nested = []
        for d in range(1, depth + 1):
            nested += [comb(None, (d, 0), (k + 1 - d, 1), None), comb(None, (d, 1)), comb((k + 1 - d, 0), None)]
        nested += [comb(None, end) for end in ends[2 * depth : -2 * depth]]
        doc = {"host": {"strands": 2, "bands": [[1, 2, 1]] * k}, "disks": [side_by_side, nested]}
        start = time.perf_counter()
        graph = CombedGraph.from_json(doc)
        assert time.perf_counter() - start < 1
        assert graph.total_arcs() == 2 * k and graph.has_free_ends()
        # with the second comb of the nest merged with the two one-tooth combs beside it, the gap of the
        # first meets no host boundary, and the free end around the merged comb is refused there
        nested[1:4] = [comb(None, (1, 1), (2, 0), (k - 1, 1), (k, 0))]
        refusal = "disk 2: a free end between arc ends 1 and 2 of component 0, .* cannot reach the host boundary"
        with pytest.raises(InvalidGraph, match=refusal):
            CombedGraph.from_json(doc)

    def test_a_moves_free_end_check_walks_no_siblings(self):
        # k bands from disk 1 to disk 2, band k with m arcs: 1,999 arcs.  Disk 1 holds one-tooth combs
        # [(t,0)], t < k, and the comb [(k,0), ..., (k,m-1)]; disk 2 holds one-tooth combs [(t,0)] and
        # [(k,j)], j < m-1, and [free end, (k,m-1)].  Each of the m-1 moves merges a one-tooth comb into
        # the comb with the free end around it, beside k-1 sibling combs; a free-end check that walked
        # back over the siblings made the reduction quadratic (8x the time without the free end).
        k = m = 1000

        def document(free_end):
            def comb(*ends):
                return {"comb": [{"free_end": True} if end is None else {"arc_end": list(end)} for end in ends]}

            ones = [comb((t, 0)) for t in range(1, k)]
            near = ones + [comb(*[(k, j) for j in range(m)])]
            far = ones + [comb((k, j)) for j in range(m - 1)] + [comb(*[None] * free_end, (k, m - 1))]
            return {"host": {"strands": 2, "bands": [[1, 2, 1]] * k}, "disks": [near, far]}

        def best_time(free_end):
            graph = CombedGraph.from_json(document(free_end))
            times = []
            for _ in range(3):
                fresh = CombedGraph(graph.host, graph.disks)
                assert is_full(fresh)  # folded outside the timing
                start = time.perf_counter()
                reduced, trace = reduce_with_trace(fresh)
                times.append(time.perf_counter() - start)
            assert len(trace) == m - 1 and reduced.total_arcs() == k and reduced.has_free_ends() == free_end
            return min(times)

        assert best_time(True) <= 3 * best_time(False)

    @pytest.mark.parametrize(
        "bands, disks, site, merged",
        [
            # B = [(2,0), free end] nests below the kept end (2,1) of A = [(1,1), (2,1)], and
            # A nests in [(1,0), (2,2)]: the free end stays between (1,1) and the kept end
            (
                ((1, 2, 1), (1, 2, 1)),
                (
                    (Comb((ArcEnd(1, 0), ArcEnd(2, 1), ArcEnd(2, 2))), Comb((ArcEnd(1, 1),)),
                     Comb((ArcEnd(2, 0),))),
                    (Comb((ArcEnd(1, 0), ArcEnd(2, 2))), Comb((ArcEnd(1, 1), ArcEnd(2, 1))),
                     Comb((ArcEnd(2, 0), FreeEnd()))),
                ),
                Site(1, 0, 1),
                (Comb((ArcEnd(1, 0), ArcEnd(2, 1))), Comb((ArcEnd(1, 1), FreeEnd(), ArcEnd(2, 0)))),
            ),
            # A = [free end, (2,1)] nests above the removed end (2,0) of B = [(1,1), (2,0), (3,0)]:
            # the free end stays between the kept end and (3,0)
            (
                ((1, 2, 1), (1, 2, 1), (1, 2, -1)),
                (
                    (Comb((FreeEnd(), ArcEnd(2, 1))), Comb((ArcEnd(1, 1), ArcEnd(2, 0), ArcEnd(3, 0))),
                     Comb((FreeEnd(), ArcEnd(1, 0), ArcEnd(3, 1)))),
                    (Comb((FreeEnd(), ArcEnd(3, 1))), Comb((ArcEnd(1, 0), ArcEnd(1, 1), ArcEnd(2, 0), ArcEnd(2, 1),
                                                            FreeEnd(), ArcEnd(3, 0)))),
                ),
                Site(2, 1, 2),
                (Comb((ArcEnd(1, 1), ArcEnd(2, 0), FreeEnd(), ArcEnd(3, 0))),
                 Comb((FreeEnd(), ArcEnd(1, 0), ArcEnd(3, 1)))),
            ),
        ],
        ids=["b-nests-in-a", "a-nests-in-b"],
    )
    def test_merge_keeps_each_free_end_in_its_face(self, bands, disks, site, merged):
        # a free end moved to the top of the merged comb would land where no host boundary lies
        host = BraidedSurface(BandRepresentation(2, tuple(EmbeddedBand(*band) for band in bands)))
        g = CombedGraph(host, disks)
        assert validate(g) == [] and is_full(g)
        far_disk = 3 - site.disk
        assert whitehead_step(g, site).disks[far_disk - 1] == merged
        assert_reduces(g)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.booleans())
    def test_listing_order_means_nothing(self, seed, free_ends):
        rng = random.Random(seed)
        g = random_direct_graph(rng, max_arcs=10)
        if free_ends:
            g = with_free_ends(g, rng)
        h = relisted(g, rng)
        assert (validate(h) == []) == (validate(g) == [])
        assume(validate(g) == [])
        assert neighborhood_summary(h) == neighborhood_summary(g)
        assert is_full(h) == is_full(g) == _bruteforce_is_full(h)
        if is_full(h):
            assert neighborhood_summary(reduce(h)) == neighborhood_summary(g)


class TestJson:
    def test_round_trip(self):
        g = three_arc_example()
        doc = g.to_json()
        assert CombedGraph.from_json(doc) == g

    def test_stated_arcs_must_match(self):
        doc = three_arc_example().to_json()
        doc["arcs"][0] = [1, 0, 0]  # not order-reversing
        with pytest.raises(InvalidGraph):
            CombedGraph.from_json(doc)

    def test_graph_that_cannot_be_drawn_is_rejected(self):
        # on this annulus host it would report a punctured torus, judged full
        doc = {
            "host": {"strands": 2, "bands": [[1, 2, -1], [1, 2, 1]]},
            "disks": [
                [{"comb": [{"arc_end": [1, 0]}, {"arc_end": [2, 0]}]},
                 {"comb": [{"arc_end": [2, 1]}, {"arc_end": [1, 1]}]}],
                [{"comb": [{"arc_end": [1, 0]}, {"arc_end": [1, 1]}, {"arc_end": [2, 0]}, {"arc_end": [2, 1]}]}],
            ],
        }
        with pytest.raises(InvalidGraph):
            CombedGraph.from_json(doc)

    def test_malformed_document(self):
        with pytest.raises(InvalidGraph):
            CombedGraph.from_json({"host": {"strands": 2, "bands": []}})
