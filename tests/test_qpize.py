import random

import pytest

from qpfiber.braidcore import beta, permutation_cycles
from qpfiber.constructions import nabla, q_rep
from qpfiber.errors import HasFreeEnds, InvalidGraph, NotFull, NotOnQ
from qpfiber.graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    FreeEnd,
    IsolatedPoint,
    is_full,
    neighborhood_summary,
    validate,
)
from qpfiber.invariants import alexander_from_braid
from qpfiber.qpize import quasipositize, quasipositize_handle_subsurface
from qpfiber import sampling
from qpfiber.sampling import inverse_whitehead, random_fine_handle_subset
from qpfiber.surface import BraidedSurface, handle_spine

from conftest import nested_partition_graph, relisted


def q_host(n):
    return BraidedSurface(q_rep(n))


def empty_disks(host, overrides):
    disks = []
    for s in range(1, host.strands + 1):
        disks.append(tuple(overrides.get(s, ())))
    return tuple(disks)


class TestFullSpines:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fiber_reproduced(self, n):
        result = quasipositize_handle_subsurface(n, range(1, 2 * (n - 1) ** 2 + 1))
        assert all(b.sign == 1 for b in result.output.bands)
        assert result.input_summary == result.output_summary
        assert len(permutation_cycles(beta(result.output))) == n
        assert alexander_from_braid(beta(result.output)) == alexander_from_braid(beta(nabla(n)))

    def test_hopf_summary(self):
        result = quasipositize_handle_subsurface(2, (1, 2))
        assert result.output_summary.components == ((0, 2),)
        assert alexander_from_braid(beta(result.output)) == alexander_from_braid(beta(q_rep(2)))


class TestDegenerateInputs:
    def test_single_point_gives_a_disk(self):
        host = q_host(3)
        graph = CombedGraph(host, empty_disks(host, {1: (IsolatedPoint(),)}))
        result = quasipositize(3, graph)
        assert result.output.strands == 1
        assert result.output.bands == ()
        assert result.output_summary.components == ((1, 1),)

    def test_empty_selection(self):
        result = quasipositize_handle_subsurface(3, ())
        assert result.output_summary.components == ((1, 1),) * 5

    def test_single_handle_selection(self):
        result = quasipositize_handle_subsurface(3, (1,))
        assert result.output_summary.components == ((1, 1),) * 4

    def test_empty_graph_rejected(self):
        host = q_host(2)
        graph = CombedGraph(host, empty_disks(host, {}))
        with pytest.raises(InvalidGraph):
            quasipositize(2, graph)


class TestErrors:
    def test_bigon_not_full(self):
        host = q_host(2)
        graph = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
                (Comb((ArcEnd(1, 0), ArcEnd(1, 1))),),
            ),
        )
        with pytest.raises(NotFull):
            quasipositize(2, graph)

    def test_wrong_host(self):
        host = BraidedSurface(nabla(3))
        graph = handle_spine(host, range(1, 7))
        with pytest.raises(NotOnQ):
            quasipositize(3, graph)

    def test_free_ends_rejected(self):
        host = q_host(2)
        graph = CombedGraph(
            host,
            (
                (Comb((ArcEnd(1, 0), FreeEnd())),),
                (Comb((ArcEnd(1, 0),)),),
            ),
        )
        with pytest.raises(HasFreeEnds):
            quasipositize(2, graph)


class TestRandomSubsets:
    @pytest.mark.parametrize("n", [3, 4])
    def test_summaries_match(self, n, rng):
        for _ in range(30):
            subset = random_fine_handle_subset(rng, 2 * (n - 1) ** 2)
            spine = handle_spine(q_host(n), subset)
            want = neighborhood_summary(spine)
            result = quasipositize(n, spine)
            assert all(b.sign == 1 for b in result.output.bands)
            assert result.output_summary == want
            assert result.input_summary == want


class TestReductionInsideQuasipositize:
    def test_expanded_spine_reduces_and_matches(self, rng):
        for n in (2, 3):
            spine = handle_spine(q_host(n), range(1, 2 * (n - 1) ** 2 + 1))
            graph = spine
            for _ in range(2):
                band = rng.randint(1, 2 * (n - 1) ** 2)
                slot = rng.randrange(graph.arc_count(band))
                near = rng.choice((1, graph.host.bands[band - 1].j))
                graph = inverse_whitehead(graph, band, slot, near)
            want = neighborhood_summary(graph)
            result = quasipositize(n, graph)
            assert len(result.steps) == 2
            assert result.output_summary == want
            assert alexander_from_braid(beta(result.output)) == alexander_from_braid(beta(nabla(n)))

    def test_listing_order_means_nothing(self, rng):
        for k in range(40):
            n = 3 + k % 2
            host = q_host(n)
            graph = handle_spine(host, random_fine_handle_subset(rng, 2 * (n - 1) ** 2))
            for _ in range(rng.randint(0, 10)):
                bands = [t for t in range(1, host.band_count() + 1) if graph.arc_count(t)]
                if not bands:
                    break
                band = rng.choice(bands)
                near = rng.choice((1, host.bands[band - 1].j))
                graph = inverse_whitehead(graph, band, rng.randrange(graph.arc_count(band)), near)
            want, got = quasipositize(n, graph), quasipositize(n, relisted(graph, rng))
            assert got.output_summary == want.output_summary
            assert got.output == want.output

    @pytest.mark.parametrize("n", [2, 3])
    def test_nested_disk_1_combs_give_one_output(self, n, monkeypatch):
        # direct graphs on S(q_n) nest disk-1 combs; the 0-handles follow the boundary, not the listing
        monkeypatch.setattr(sampling, "random_band_representation", lambda *args, **kwargs: q_rep(n))
        rng = random.Random(7)
        for _ in range(600):
            graph = sampling.random_direct_graph(rng, max_arcs=12)
            if validate(graph) == [] and is_full(graph):
                assert quasipositize(n, relisted(graph, rng)).output == quasipositize(n, graph).output

    def test_all_handles_of_q5_grown_to_150_arcs(self):
        # The graph of `perfbench/known_fault.py --seed 1`: full, with so many
        # simple cycles that enumerating them gave up.  The draws follow that
        # script: a shuffle of the 16 outer disks (all marked), then per arc a
        # band, a near disk and a slot.
        rng = random.Random(1)
        rng.shuffle(list(range(16)))
        host = q_host(5)
        graph = handle_spine(host, range(1, 33))
        while graph.total_arcs() < 150:
            band = rng.randint(1, 32)
            near = rng.choice((1, host.bands[band - 1].j))
            graph = inverse_whitehead(graph, band, rng.randrange(graph.arc_count(band)), near)
        want = neighborhood_summary(graph)
        result = quasipositize(5, graph)
        assert len(result.steps) == 150 - 32
        assert result.input_summary == want == result.output_summary


@pytest.mark.parametrize("n", [2, 3])
def test_combs_around_nested_dead_ends_are_quasipositized(n):
    # some of these graphs (6 of the 244 full ones for n = 2, 1 of 335 for n = 3) reduce to a middle
    # comb meeting one attaching arc twice around a dead end; quasipositize drops the dead ends and
    # reduces on, and checks the output summary against the input's
    rng = random.Random(n)
    full = 0
    for _ in range(400):
        graph = nested_partition_graph(rng, n)
        if validate(graph) == [] and is_full(graph):
            full += 1
            assert quasipositize(n, graph).output_summary == neighborhood_summary(graph)
    assert full > 200
