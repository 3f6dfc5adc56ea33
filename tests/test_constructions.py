import pytest

from qpfiber.braidcore import (
    BandRepresentation,
    BraidWord,
    EmbeddedBand,
    beta,
    exponent_sum,
    permutation_cycles,
)
from qpfiber.constructions import (
    MAX_N,
    CoarseDecomposition,
    expand_bands,
    nabla,
    nu_of,
    pad_into_nabla,
    q_rep,
    verify_fiber,
)
from qpfiber.errors import InvalidParameter, NotPositive, NotQuasipositive
from qpfiber.graphcalc import ArcEnd, Comb, is_full, neighborhood_summary
from qpfiber.invariants import alexander_from_braid, alexander_from_seifert, seifert_matrix
from qpfiber.surface import BraidedSurface, euler_characteristic, summary

from conftest import word_from_letters


def bands_of(rep):
    return [(b.i, b.j, b.sign) for b in rep.bands]


class TestNabla:
    def test_small_cases(self):
        assert bands_of(nabla(2)) == [(1, 2, 1), (1, 2, 1)]
        assert bands_of(nabla(3)) == [
            (1, 2, 1), (2, 3, 1), (1, 2, 1), (2, 3, 1), (1, 2, 1), (2, 3, 1),
        ]

    def test_chi(self):
        for n in range(2, 7):
            assert euler_characteristic(BraidedSurface(nabla(n))) == n - n * (n - 1)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameter):
            nabla(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_rejects_an_n_that_is_not_an_int(self, n):
        with pytest.raises(InvalidParameter, match="needs an integer n"):
            nabla(n)


class TestQRep:
    def test_n2(self):
        assert bands_of(q_rep(2)) == [(1, 2, 1), (1, 2, 1)]

    def test_n3(self):
        assert bands_of(q_rep(3)) == [
            (1, 5, 1), (1, 4, 1), (1, 3, 1), (1, 2, 1),
            (1, 5, 1), (1, 3, 1), (1, 4, 1), (1, 2, 1),
        ]

    def test_chi(self):
        for n in range(2, 7):
            assert euler_characteristic(BraidedSurface(q_rep(n))) == 1 - (n - 1) ** 2

    def test_length_and_positivity(self):
        for n in range(2, 7):
            rep = q_rep(n)
            assert rep.strands == nu_of(n)
            assert len(rep.bands) == 2 * (nu_of(n) - 1)
            assert all(b.sign == 1 and b.i == 1 for b in rep.bands)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameter):
            q_rep(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_rejects_an_n_that_is_not_an_int(self, n):
        with pytest.raises(InvalidParameter, match="needs an integer n"):
            q_rep(n)


class TestCoarseDecomposition:
    def test_partition(self):
        for n in range(2, 7):
            CoarseDecomposition(n).assignment()

    def test_handles_close_up(self):
        # both fine bands of a coarse handle join strand 1 to the same disk
        for n in range(2, 7):
            cd = CoarseDecomposition(n)
            rep = q_rep(n)
            for s in range(1, cd.nu):
                first, disk, second = cd.coarse_one_handle(s)
                assert rep.bands[first - 1].j == disk == rep.bands[second - 1].j

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            CoarseDecomposition(3).coarse_one_handle(5)

    @pytest.mark.parametrize("s", [2.5, 2.0, "2", True, None])
    def test_rejects_a_handle_index_that_is_not_an_int(self, s):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            CoarseDecomposition(3).coarse_one_handle(s)

    @pytest.mark.parametrize("n", [1, 2.5, 3.0, "3", True])
    def test_rejects_an_n_that_is_not_an_int_at_least_2(self, n):
        with pytest.raises(InvalidParameter):
            CoarseDecomposition(n)


class TestPadIntoNabla:
    def marked(self, graph):
        return sorted(
            {
                tooth.band
                for comps in graph.disks
                for comp in comps
                if isinstance(comp, Comb)
                for tooth in comp.teeth
                if isinstance(tooth, ArcEnd)
            }
        )

    def test_single_letter(self):
        n, graph = pad_into_nabla(word_from_letters(2, [1]))
        assert n == 2
        assert self.marked(graph) == [1]

    def test_three_letters(self):
        n, graph = pad_into_nabla(word_from_letters(3, [1, 2, 1]))
        assert n == 3
        assert self.marked(graph) == [1, 4, 5]

    def test_empty_word(self):
        n, graph = pad_into_nabla(BraidWord(2, ()))
        assert n == 2
        assert self.marked(graph) == []
        assert neighborhood_summary(graph).components == ((1, 1), (1, 1))

    def test_long_word_forces_padding(self):
        word = word_from_letters(2, [1, 1, 1])
        n, graph = pad_into_nabla(word)
        assert n == 3
        want = summary(
            BraidedSurface(BandRepresentation(3, tuple(EmbeddedBand(1, 2, 1) for _ in range(3))))
        )
        assert neighborhood_summary(graph) == want
        assert is_full(graph)

    def test_rejects_negative_letters(self):
        with pytest.raises(NotPositive):
            pad_into_nabla(word_from_letters(2, [-1]))


class TestExpandBands:
    def test_single_wide_band(self):
        word, graph = expand_bands(BandRepresentation(3, (EmbeddedBand(1, 3, 1),)))
        assert [i for i, _ in word.letters] == [1, 2]
        assert neighborhood_summary(graph).components == ((1, 1), (1, 1))
        assert is_full(graph)

    def test_generator_band(self):
        word, graph = expand_bands(BandRepresentation(2, (EmbeddedBand(1, 2, 1),)))
        assert [i for i, _ in word.letters] == [1]
        assert neighborhood_summary(graph) == summary(BraidedSurface(word_to_rep(word)))

    def test_two_wide_bands(self):
        rep = BandRepresentation(3, (EmbeddedBand(1, 3, 1), EmbeddedBand(1, 3, 1)))
        word, graph = expand_bands(rep)
        assert [i for i, _ in word.letters] == [1, 2, 1, 2]
        assert neighborhood_summary(graph) == summary(BraidedSurface(rep))
        assert is_full(graph)

    def test_rejects_negative_bands(self):
        with pytest.raises(NotQuasipositive):
            expand_bands(BandRepresentation(3, (EmbeddedBand(1, 3, -1),)))


def word_to_rep(word):
    return BandRepresentation(word.strands, tuple(EmbeddedBand(i, i + 1, s) for i, s in word.letters))


def torus_link_alexander(n):
    """Coefficients of (1 - t)(1 - t^n)^(n-2), the Alexander polynomial of T(n, n)."""
    coeffs = [1, -1]
    for _ in range(n - 2):
        factor = [1] + [0] * (n - 1) + [-1]
        product = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        coeffs = product
    return coeffs


class TestVerifyFiber:
    def test_small_fibers(self):
        for n in range(2, 7):
            report = verify_fiber(n)
            assert report.ok()
            # read off the bands, they equal the counts read off the expanded words
            assert report.components_q == len(permutation_cycles(beta(q_rep(n)))) == n
            assert report.components_nabla == len(permutation_cycles(beta(nabla(n)))) == n

    @pytest.mark.parametrize("n", [1, 2.5, 3.0, "3", True])
    def test_rejects_an_n_that_is_not_an_int_at_least_2(self, n):
        with pytest.raises(InvalidParameter):
            verify_fiber(n)

    def test_fiber_model_alexander_is_closed_form(self):
        # both routes up to MAX_N: the largest packed complements of mat_det are the last steps at n = 11
        for n in range(2, MAX_N + 1):
            want = torus_link_alexander(n)
            assert alexander_from_braid(beta(q_rep(n))).coefficient_list() == want, n
            assert alexander_from_seifert(seifert_matrix(q_rep(n))).coefficient_list() == want, n

    def test_exponent_sums(self):
        for n in range(2, 7):
            assert exponent_sum(beta(q_rep(n))) == 2 * (n - 1) ** 2
            assert exponent_sum(beta(nabla(n))) == n * (n - 1)
            # chi = strands - exponent sum for both models
            assert euler_characteristic(BraidedSurface(q_rep(n))) == nu_of(n) - 2 * (n - 1) ** 2
