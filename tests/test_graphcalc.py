import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpfiber.braidcore import BandRepresentation, EmbeddedBand
from qpfiber.errors import InvalidGraph, NotFull, SiteNotEligible
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
from qpfiber.surface import BraidedSurface, handle_spine, summary


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
