import copy
import itertools
import json
import random
import sys
from operator import mul

import pytest

from hypothesis import example, given, settings, strategies as st

from qpfiber import cli, invariants
from qpfiber._linking import pl_seifert_matrix
from qpfiber.braidcore import BandRepresentation, BraidWord, EmbeddedBand, beta, free_reduction
from qpfiber.constructions import MAX_N, nabla, q_rep, verify_fiber
from qpfiber.errors import InternalError, NonExactDivision
from qpfiber.invariants import (
    LaurentPolynomial,
    alexander_from_braid,
    alexander_from_seifert,
    mat_det,
    mat_mul,
    reduced_burau,
    seifert_matrix,
)
from qpfiber.surface import BraidedSurface, summary

from conftest import band_representations, braid_words, word_from_letters


def L(terms):
    """The polynomial of an {exponent: coefficient} dict."""
    low = min(terms, default=0)
    return LaurentPolynomial([terms.get(e, 0) for e in range(low, max(terms, default=-1) + 1)], low)


def naive_product(a, b):
    """Triple-loop product of matrices whose entries are {exponent: coefficient} dicts."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = {}
            for k in range(inner):
                for e2, c2 in b[k][j].items():
                    for e1, c1 in a[i][k].items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def as_dict(p):
    return {p.low + k: c for k, c in enumerate(p.coeffs) if c}


def as_columns(matrix):
    """The integer columns {exponent * size + row: coefficient} of a square matrix of dicts."""
    size = len(matrix)
    return [{e * size + i: c for i, row in enumerate(matrix) for e, c in row[j].items() if c} for j in range(size)]


def from_columns(columns):
    """The square matrix of dicts of integer columns."""
    size = len(columns)
    matrix = [[{} for _ in range(size)] for _ in range(size)]
    for j, column in enumerate(columns):
        for key, c in column.items():
            e, i = divmod(key, size)
            matrix[i][j][e] = c
    return matrix


def right_multiply(columns, i, sign):
    """The integer columns of the product by sigma_i^sign: column i-1 from `mat_mul`, the others the same objects."""
    return columns[:i - 1] + [mat_mul(columns, i - 1, sign)] + columns[i:]


def dict_identity(size):
    return [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]


def dict_generator(strands, i, sign):
    """sigma_i^sign: the identity apart from column i-1 (0-based), written out by hand."""
    size = strands - 1
    m = dict_identity(size)
    r = i - 1
    above, diagonal, below = ({1: 1}, {1: -1}, {0: 1}) if sign == 1 else ({0: 1}, {-1: -1}, {-1: 1})
    if r - 1 >= 0:
        m[r - 1][r] = above
    m[r][r] = diagonal
    if r + 1 < size:
        m[r + 1][r] = below
    return m


def naive_fold(word):
    """The reduced Burau matrix of a word as a fold of `naive_product` over `dict_generator`."""
    out = dict_identity(word.strands - 1)
    for i, sign in word.letters:
        out = naive_product(out, dict_generator(word.strands, i, sign))
    return out


polys = st.one_of(
    st.just({}),
    st.just({0: 1}),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3),
)


@st.composite
def square_matrices(draw):
    """(matrix, strands, i, sign): a square matrix on 2-8 strands, dense or mostly zero/one, and a letter."""
    strands = draw(st.integers(2, 8))
    entries = draw(st.sampled_from([polys, st.sampled_from([{}, {}, {}, {0: 1}, {1: -1}])]))
    matrix = [[draw(entries) for _ in range(strands - 1)] for _ in range(strands - 1)]
    return matrix, strands, draw(st.integers(1, strands - 1)), draw(st.sampled_from((1, -1)))


@st.composite
def long_words(draw):
    """A word of 0-80 letters on 2-8 strands: mixed, all positive or all negative."""
    strands = draw(st.integers(2, 8))
    signs = draw(st.sampled_from(((1, -1), (1,), (-1,))))
    letters = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.sampled_from(signs)), max_size=80))
    return BraidWord(strands, tuple(letters))


@st.composite
def cancelling_words(draw):
    """A signed word with inverse pairs inserted, some of them nested, at drawn places."""
    word = draw(braid_words(max_strands=5, max_length=10))
    letters = list(word.letters)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(1, word.strands - 1))
        sign = draw(st.sampled_from((1, -1)))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [(i, sign), (i, -sign)]
    return BraidWord(word.strands, tuple(letters))


HOPF = BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1)))
TREFOIL = BandRepresentation(2, tuple(EmbeddedBand(1, 2, 1) for _ in range(3)))


class TestLaurent:
    def test_canonical_form(self):
        assert L({-3: -2, -1: 2}).canonical() == L({0: 2, 2: -2})
        assert L({}).canonical() == L({})

    def test_canonical_form_is_kept_as_is(self):
        for p in (L({}), L({0: 1}), L({0: 2, 2: -2}), L({0: 3, 1: -1})):
            assert p.canonical() is p
        for p in (L({-1: 1}), L({0: -1}), L({2: -3, 4: 1})):
            q = p.canonical()
            assert q is not p and q.canonical() is q

    def test_exact_division(self):
        p = L({0: 1, 1: 1}) * L({0: 1, 1: -1, 2: 1})
        assert p.exact_div(L({0: 1, 1: 1})) == L({0: 1, 1: -1, 2: 1})
        with pytest.raises(NonExactDivision):
            L({0: 1, 1: 1}).exact_div(L({0: 2}))
        with pytest.raises(NonExactDivision):
            L({0: 1, 2: 1}).exact_div(L({0: 1, 1: 1}))

    def test_unit_multiples_have_one_canonical_form(self):
        assert L({0: -1, 1: 1}).canonical() == L({0: 1, 1: -1}).canonical()       # t-1 vs 1-t
        assert L({0: 1, 1: -1, 2: 1}).canonical() == L({1: 1, 2: -1, 3: 1}).canonical()  # shift by t
        assert L({0: -1, 1: 1}).canonical() != L({0: 1, 1: 1}).canonical()


# A reference on plain {exponent: coefficient} dicts, sharing no code with
# LaurentPolynomial: every result drops its zero coefficients.


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_unit_multiples(p):
    """Every +-t^j p whose exponents stay within -20..20."""
    return [{e + j: s * c for e, c in p.items()} for j in range(-20, 21) for s in (1, -1)]


def ref_canonical(p):
    if not p:
        return {}
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return {e - low: sign * c for e, c in p.items()}


# sparse dicts with negative exponents, gaps and explicit zero coefficients
term_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=6)
nonzero_dicts = term_dicts.filter(lambda d: any(d.values()))
spanning_dicts = term_dicts.filter(lambda d: len([c for c in d.values() if c]) > 1)
# +-1, +-t^j and c t^j
monomials = st.one_of(
    st.sampled_from(({0: 1}, {0: -1})),
    st.builds(lambda j, s: {j: s}, st.integers(-6, 6), st.sampled_from((1, -1))),
    st.builds(lambda j, c: {j: c}, st.integers(-6, 6), st.integers(-4, 4).filter(bool)),
)


def assert_trimmed(p):
    assert isinstance(p.coeffs, tuple)
    if p.coeffs:
        assert p.coeffs[0] and p.coeffs[-1]
    else:
        assert p.low == 0


class TestLaurentAgainstReference:
    @given(term_dicts, term_dicts)
    @settings(max_examples=100)
    def test_ring_operations(self, p, q):
        got = L(p) * L(q)
        assert_trimmed(got)
        assert as_dict(got) == ref_mul(p, q)

    @given(term_dicts, monomials)
    @settings(max_examples=100)
    def test_monomial_products(self, p, m):
        want = ref_mul(p, m)
        for got in (L(p) * L(m), L(m) * L(p)):
            assert_trimmed(got)
            assert as_dict(got) == want
            assert got == L(want)
            assert hash(got) == hash(L(want))

    @given(term_dicts.filter(lambda d: any(c for e, c in d.items() if e < 0)), st.integers(-6, 6))
    @settings(max_examples=100)
    @example({-2: 1, 0: 0, 1: -3}, 0)  # x1 is the polynomial itself, not its lowest monomial
    @example({-1: 1}, 2)
    def test_unit_factors_of_polynomials_below_zero(self, p, j):
        # times 1 and by the shifts +-t^j, on either side
        for m in ({0: 1}, {j: 1}, {j: -1}):
            want = ref_mul(p, m)
            for got in (L(p) * L(m), L(m) * L(p)):
                assert_trimmed(got)
                assert as_dict(got) == want
                assert got == L(want)

    @given(term_dicts, nonzero_dicts)
    @settings(max_examples=100)
    def test_exact_division_undoes_product(self, p, q):
        quotient = (L(p) * L(q)).exact_div(L(q))
        assert_trimmed(quotient)
        assert quotient == L(p)

    @given(term_dicts, spanning_dicts, st.data())
    @settings(max_examples=100)
    def test_non_multiple_is_refused(self, p, q, data):
        # a nonzero r spanning fewer exponents than q is no multiple of q,
        # and neither is p q + r
        b = L(q)
        r = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=len(b.coeffs) - 1).filter(any))
        remainder = dict(enumerate(r, data.draw(st.integers(-6, 6))))
        with pytest.raises(NonExactDivision):
            L(ref_add(ref_mul(p, q), remainder)).exact_div(b)

    @given(term_dicts, st.sampled_from((1, -1, 2, -2, 3)), st.integers(-6, 6))
    @settings(max_examples=150)
    @example({0: 2, 1: -4, 3: 6}, -2, 1)
    @example({-1: 1, 2: 2}, 2, 0)  # one coefficient is not a multiple of c
    @example({0: 3, 1: 1}, 3, -2)  # the top coefficient is a multiple of c, the lowest is not
    def test_division_by_a_monomial(self, p, c, j):
        # the reference divides each coefficient, or finds one that c does not divide
        p = {e: x for e, x in p.items() if x}
        if any(x % c for x in p.values()):
            with pytest.raises(NonExactDivision, match="^leading coefficient does not divide$"):
                L(p).exact_div(L({j: c}))
        else:
            quotient = L(p).exact_div(L({j: c}))
            assert_trimmed(quotient)
            assert as_dict(quotient) == {e - j: x // c for e, x in p.items()}
        # a product by the monomial divides back
        quotient = L(ref_mul(p, {j: c})).exact_div(L({j: c}))
        assert_trimmed(quotient)
        assert as_dict(quotient) == p

    @given(term_dicts)
    def test_division_by_zero_is_refused(self, p):
        with pytest.raises(NonExactDivision):
            L(p).exact_div(L({}))

    @given(term_dicts)
    @settings(max_examples=100)
    def test_canonical(self, p):
        canon = L(p).canonical()
        assert_trimmed(canon)
        assert as_dict(canon) == ref_canonical({e: c for e, c in p.items() if c})

    @given(term_dicts, term_dicts)
    @settings(max_examples=100)
    def test_one_canonical_form_exactly_for_unit_multiples(self, p, q):
        p = {e: c for e, c in p.items() if c}
        q = {e: c for e, c in q.items() if c}
        assert (L(p).canonical() == L(q).canonical()) == (q in ref_unit_multiples(p))

    @given(term_dicts, st.integers(-6, 6), st.sampled_from((1, -1)))
    @settings(max_examples=100)
    def test_unit_multiples_are_equal_up_to_units(self, p, j, sign):
        assert L(p).canonical() == L({e + j: sign * c for e, c in p.items()}).canonical()

    @given(term_dicts, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=100)
    def test_equal_polynomials_hash_equally(self, p, below, above):
        a = L(p)
        padded = LaurentPolynomial([0] * below + list(a.coeffs) + [0] * above, a.low - below)
        assert_trimmed(padded)
        assert padded == a
        assert hash(padded) == hash(a)


def assert_no_stored_zero(columns):
    for column in columns:
        assert all(column.values()), column


class TestMatMul:
    @given(square_matrices())
    @settings(max_examples=100)
    def test_matches_naive_product(self, drawn):
        matrix, strands, i, sign = drawn
        columns = as_columns(matrix)
        before = copy.deepcopy(columns)
        product = right_multiply(columns, i, sign)
        assert from_columns(product) == naive_product(matrix, dict_generator(strands, i, sign))
        assert_no_stored_zero(product)
        # the input is never mutated, and the new column is a fresh dict
        assert columns == before
        assert all(product[i - 1] is not column for column in columns)

    def test_edge_shapes(self):
        # sigma_1 and sigma_(n-1) read one neighbour, and on 2 strands none; keys are e * size + row
        assert mat_mul([{0: 1}], 0, 1) == {1: -1}  # -t
        assert mat_mul([{0: 1}], 0, -1) == {-1: -1}  # -t^-1: a negative key
        assert mat_mul([{0: 1}, {1: 1}], 0, 1) == {2: -1, 1: 1}  # -t at row 0, 1 at row 1
        assert mat_mul([{0: 1}, {1: 1}], 1, 1) == {2: 1, 3: -1}  # t at row 0, -t at row 1
        assert mat_mul([{0: 1}, {1: 1}], 1, -1) == {0: 1, -1: -1}  # 1 at row 0, -t^-1 at row 1
        for strands in range(2, 9):
            size = strands - 1
            matrix = [[{e: (r + 2 * c + e) % 5 - 2 for e in range(-1, 2)} for c in range(size)] for r in range(size)]
            for i in {1, strands - 1}:
                for sign in (1, -1):
                    want = naive_product(matrix, dict_generator(strands, i, sign))
                    assert from_columns(right_multiply(as_columns(matrix), i, sign)) == want, (strands, i, sign)

    def test_fresh_zero_objects_in_both_operands(self):
        # zero columns, absent rows, and sums that cancel to an empty column, which is a fresh dict
        zeros = [{}, {}, {}]
        for r in range(3):
            for sign in (1, -1):
                column = mat_mul(zeros, r, sign)
                assert column == {} and all(column is not z for z in zeros)
        assert zeros == [{}, {}, {}]
        assert mat_mul([{4: 2}, {4: 2}, {}], 1, 1) == {}  # t c0 - t c1
        assert mat_mul([{}, {4: 2}, {4: 2}], 1, -1) == {}  # -t^-1 c1 + t^-1 c2
        assert mat_mul([{0: 2, 5: -1}, {3: 2, 2: 2}], 0, 1) == {7: 1, 3: 2}  # -t c0 + c1: the t term of row 0 cancels

    def test_cancelling_terms_leave_no_stored_zero(self):
        # sigma_i sigma_i^-1 and sigma_i^-1 sigma_i at either edge are the identity column for
        # column, with no zero stored
        for strands in (2, 3, 5, 7):
            size = strands - 1
            identity = as_columns(dict_identity(size))
            for i in {1, strands - 1}:
                for sign in (1, -1):
                    twisted = right_multiply(identity, i, sign)
                    product = right_multiply(twisted, i, -sign)
                    assert product == identity, (strands, i, sign)
                    assert_no_stored_zero(twisted)
                    assert_no_stored_zero(product)

    def test_hand_written_generators_are_inverse(self):
        for strands in (2, 3, 5):
            for i in range(1, strands):
                product = naive_product(dict_generator(strands, i, 1), dict_generator(strands, i, -1))
                assert product == dict_identity(strands - 1)


def leibniz_det(matrix):
    """Sum over permutations of signed products, on {exponent: coefficient} dicts."""
    total = {}
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = {0: 1}
        for row, column in enumerate(perm):
            term = ref_mul(term, matrix[row][column])
        total = ref_add(total, term, -1 if inversions % 2 else 1)
    return total


def zero_padded(matrix):
    """A copy of the matrix whose every entry, {} too, also stores a zero coefficient below its lowest exponent."""
    return [[{min(entry, default=0) - 1: 0, **entry} for entry in row] for row in matrix]


def assert_matches_leibniz(matrix):
    """mat_det equals the Leibniz sum on the matrix and on its zero-padded copy, which must read the same."""
    want = leibniz_det(matrix)
    assert as_dict(mat_det(matrix)) == want, matrix
    assert as_dict(mat_det(zero_padded(matrix))) == want, matrix


def sparse_dict_matrix(rng, size):
    """A size x size matrix of dicts with about half the entries zero."""
    return [
        [{rng.randint(-2, 2): rng.choice((-2, -1, 1, 3)), rng.randint(-2, 2): 1} if rng.random() < 0.5 else {}
         for _ in range(size)]
        for _ in range(size)
    ]


def seifert_grid(rep):
    """V - t V^T of the Seifert matrix of rep, as `alexander_from_seifert` builds it."""
    v = seifert_matrix(rep)
    return [[{e: c for e, c in ((0, v[i][j]), (1, -v[j][i])) if c} for j in range(len(v))] for i in range(len(v))]


def unit(rng):
    """+-t^j."""
    return {rng.randint(-2, 2): rng.choice((1, -1))}


def non_unit(rng):
    """A nonzero entry that is no unit: one term with coefficient +-2 or 3, or two terms."""
    low = rng.randint(-2, 2)
    if rng.random() < 0.5:
        return {low: rng.choice((-2, 2, 3))}
    return {low: rng.choice((-1, 1, 2)), low + rng.randint(1, 2): rng.choice((-1, 1, 3))}


def any_entry(rng):
    return rng.choice((lambda rng: {}, unit, non_unit))(rng)


def large_row(rng, size, low):
    """A row of entries with up to three terms and coefficients up to +-10^6, whose lowest exponent is `low`.

    Every entry is nonzero, and none is a unit: each has a coefficient of at least 2 in absolute value.
    """
    row = []
    for _ in range(size):
        entry = {low + rng.randint(0, 4): rng.choice((-1, 1)) * rng.randint(2, 10**6)}
        for _ in range(rng.randint(0, 2)):
            entry[low + rng.randint(0, 4)] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        row.append(entry)
    row[rng.randrange(size)][low] = rng.choice((-1, 1)) * rng.randint(2, 10**6)
    return row


square_matrices = st.integers(2, 5).flatmap(
    lambda size: st.lists(st.lists(polys, min_size=size, max_size=size), min_size=size, max_size=size)
)

# mostly units +-t^j on a narrow band of exponents, so products of units meet and cancel
unit_entries = st.builds(lambda j, c: {j: c}, st.integers(-1, 1), st.sampled_from((1, -1)))
unit_heavy_matrices = st.integers(2, 5).flatmap(
    lambda size: st.lists(
        st.lists(st.one_of(unit_entries, unit_entries, unit_entries, st.just({}), polys), min_size=size, max_size=size),
        min_size=size, max_size=size,
    )
)


class TestDeterminant:
    def test_matches_leibniz_on_seeded_sparse_matrices(self):
        rng = random.Random(1401)
        for size in range(1, 6):
            for _ in range(12):
                matrix = sparse_dict_matrix(rng, size)
                assert_matches_leibniz(matrix)

    def test_small_shapes(self):
        assert mat_det(()) == L({0: 1})
        assert mat_det([[{-2: 3, 1: -1}]]) == L({-2: 3, 1: -1})
        assert mat_det([[{}]]) == L({})

    def test_empty_leading_pivot_swaps_rows(self):
        assert mat_det([[{}, {0: 1}], [{1: 1}, {}]]) == L({1: -1})
        three = [[{}, {0: 2}, {1: 1}], [{}, {0: 1}, {}], [{0: 1, 1: 1}, {0: 1}, {0: 3}]]
        assert as_dict(mat_det(three)) == leibniz_det(three) == {1: -1, 2: -1}

    def test_zero_column(self):
        assert mat_det([[{0: 1}, {}, {1: 2}], [{0: 3}, {}, {0: 1}], [{2: 1}, {}, {0: 1}]]) == L({})
        assert mat_det([[{0: 1}, {0: 2}], [{1: 1}, {1: 2}]]) == L({})

    def test_deferred_scaling_across_steps(self):
        # The last row is updated at step 0, skipped at steps 1 and 2, and next updated at step 3
        # with divisor p_0 = t + 1; rows 1 and 3 become pivots only after steps that skipped them.
        matrix = [
            [{0: 1, 1: 1}, {}, {}, {}, {0: 1}],
            [{}, {0: 2}, {0: 1}, {}, {}],
            [{}, {0: 1}, {1: 1}, {0: 1}, {}],
            [{}, {}, {}, {0: 3}, {1: 1}],
            [{0: 2}, {}, {}, {0: 1}, {0: 2}],
        ]
        # column 0 holds no unit, so every step is a Bareiss step
        assert_matches_leibniz(matrix)

    def test_unit_phase_takes_a_negative_pivot_after_a_swap(self):
        # column 0 holds one unit, -t^j, below row 0: step 0 swaps it up and clears by -t^-j
        rng = random.Random(2401)
        for size in range(2, 6):
            for _ in range(8):
                matrix = [[any_entry(rng) for _ in range(size)] for _ in range(size)]
                for row in matrix:
                    row[0] = non_unit(rng)
                pivot = rng.randrange(1, size)
                matrix[pivot][0] = {rng.randint(-2, 2): -1}
                matrix[pivot][rng.randrange(1, size)] = non_unit(rng)
                assert_matches_leibniz(matrix)

    def test_bareiss_takes_over_part_way(self):
        # after the unit step on column 0 every column-1 entry is still even, so no unit: Bareiss from step 1
        rng = random.Random(2402)
        for size in range(3, 6):
            for _ in range(8):
                matrix = [[any_entry(rng) for _ in range(size)] for _ in range(size)]
                matrix[rng.randrange(size)][0] = unit(rng)
                for row in matrix:
                    row[1] = {e: 2 * c for e, c in non_unit(rng).items()}
                assert_matches_leibniz(matrix)

    def test_no_gaussian_step_after_a_bareiss_step(self):
        # column 0 holds no unit, so step 0 is a Bareiss step on row 0, with pivot 2.  It stores
        # row 1 with divisor 2 and the unit 2 * 2 - 3 * 1 = 1 in column 1; every other column-1
        # entry is no unit.  A unit step there would drop the factor 2 the row's scale carries.
        rng = random.Random(2403)
        for size in range(2, 6):
            for _ in range(8):
                matrix = [[any_entry(rng) for _ in range(size)] for _ in range(size)]
                matrix[0] = [{0: 2}, {0: 1}] + [{}] * (size - 2)
                matrix[1][:2] = [{0: 3}, {0: 2}]
                for row in matrix[2:]:
                    row[:2] = [{}, non_unit(rng)]
                assert_matches_leibniz(matrix)

    def test_no_unit_pivot(self):
        rng = random.Random(2404)
        for size in range(1, 6):
            for _ in range(8):
                matrix = [[any_entry(rng) for _ in range(size)] for _ in range(size)]
                for row in matrix:
                    row[0] = non_unit(rng) if rng.random() < 0.7 else {}
                matrix[0][0] = non_unit(rng)
                assert_matches_leibniz(matrix)
        # no unit anywhere; a stored zero in entry (0, 0), kept, would be read as a packed pivot of 0
        stored_zero = [[{0: 0}, {0: 2}, {0: 2}], [{0: 3}, {0: 5}, {0: 7}], [{0: 11}, {0: 13}, {0: 4}]]
        assert leibniz_det(stored_zero) == {0: 98}
        assert_matches_leibniz(stored_zero)

    def test_singular_found_in_each_phase(self):
        # the unit step on row 0 clears row 1 = -t row 0, and column 1 is then empty
        gaussian = [[{0: 1}, {1: 1}, {0: 2}], [{1: -1}, {2: -1}, {1: -2}], [{1: 1}, {2: 1}, {0: 5}]]
        # no unit in column 0; Bareiss step 0 clears row 1 = 2 row 0, found empty at step 2
        bareiss = [[{0: 2}, {0: 1, 1: 1}, {0: 4}], [{0: 4}, {0: 2, 1: 2}, {0: 8}], [{0: 1, 1: 1}, {0: 3}, {1: 1}]]
        for matrix in (gaussian, bareiss):
            assert leibniz_det(matrix) == {}
            assert mat_det(matrix) == L({})
        rng = random.Random(2405)
        for size in range(2, 6):
            for _ in range(8):
                matrix = [[any_entry(rng) for _ in range(size)] for _ in range(size)]
                for row in matrix:
                    row[0] = non_unit(rng)
                source, target = rng.sample(range(size), 2)
                if rng.random() < 0.5:
                    matrix[source][0] = unit(rng)
                    factor = unit(rng)
                else:
                    factor = {rng.randint(-1, 1): 2}
                matrix[target] = [ref_mul(entry, factor) for entry in matrix[source]]
                assert mat_det(matrix) == L({}), matrix

    def test_wholly_packed_with_large_coefficients_and_shifted_rows(self):
        # column 0 holds no unit, so every step runs on packed integers; row i's lowest exponent is -s_i
        rng = random.Random(2501)
        for size in range(1, 6):
            for _ in range(6):
                matrix = [large_row(rng, size, -rng.randint(1, 6)) for _ in range(size)]
                for row in matrix:
                    row[0] = {e: 2 * c for e, c in row[0].items()}
                assert_matches_leibniz(matrix)

    def test_packed_steps_after_a_unit_step(self):
        # row 0 is +-t^j e_0, so step 0 is a unit step and leaves the other rows' columns 1.. as C;
        # their entries are even, so C holds no unit and is packed whole
        rng = random.Random(2502)
        for size in range(2, 6):
            for _ in range(6):
                matrix = [[unit(rng)] + [{}] * (size - 1)]
                for _ in range(size - 1):
                    row = large_row(rng, size, -rng.randint(0, 6))
                    matrix.append([row[0]] + [{e: 2 * c for e, c in entry.items()} for entry in row[1:]])
                assert_matches_leibniz(matrix)
                singular = [row[:] for row in matrix]
                source, target = rng.sample(range(1, size), 2) if size > 2 else (1, 1)
                if source != target:
                    factor = {rng.randint(-2, 2): rng.choice((3, -5))}
                    singular[target][1:] = [ref_mul(entry, factor) for entry in singular[source][1:]]
                else:
                    singular[1][1] = {}
                assert leibniz_det(singular) == {}
                assert mat_det(singular) == L({}), singular

    def test_hadamard_bound_is_met(self):
        # 2 H_4 meets the bound: det = 256 = H = 2^8, so B = 10; with B = 9, 256 = 2^(B-1) would be
        # read back as the digits -256 and 1.  The variant's entries 2h(1 + t) t^(i-3) give H = 4096.
        hadamard = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        doubled = [[{0: 2 * h} for h in row] for row in hadamard]
        assert leibniz_det(doubled) == {0: 256}
        assert as_dict(mat_det(doubled)) == {0: 256}
        shifted = [[{i - 3: 2 * h, i - 2: 2 * h} for h in row] for i, row in enumerate(hadamard)]
        assert as_dict(mat_det(shifted)) == leibniz_det(shifted)
        assert as_dict(mat_det(shifted)) == {-6 + k: 256 * c for k, c in enumerate((1, 4, 6, 4, 1))}

    def test_pack_and_unpack_round_trip(self):
        rng = random.Random(2503)
        for bits in (2, 3, 8, 61, 200):
            top = 2 ** (bits - 1) - 1
            for _ in range(20):
                coeffs = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(rng.randint(1, 6))]
                coeffs[0], coeffs[-1] = rng.choice((top, -top)), rng.choice((top, -top))
                low = rng.randint(-4, 4)
                poly = LaurentPolynomial(coeffs, low)
                shift = low - rng.randint(0, 3)
                packed = invariants._pack(as_dict(poly), bits, shift)
                assert packed == sum(c * 2 ** (bits * (k + low - shift)) for k, c in enumerate(coeffs))
                assert invariants._unpack(packed, bits, shift) == poly
        assert invariants._unpack(0, 5, 3) == L({})

    def test_unpack_refuses_fewer_than_two_bits(self):
        # with one bit the digits of a positive value never end
        for bits in (1, 0):
            with pytest.raises(InternalError):
                invariants._unpack(1, bits, 0)

    @given(unit_heavy_matrices)
    @settings(max_examples=150, deadline=None)
    # row 0 feeds rows 1 and 2, whose column-1 and column-2 entries cancel to zero; Bareiss ends the run
    @example([[{0: 1}, {0: 1}, {0: 1}], [{0: 1}, {0: 1}, {1: 1}], [{0: 1}, {1: 1}, {0: 1}]])
    # four unit steps: step 0 clears three rows and step 1 two, and three fill-in entries cancel
    @example([[{0: -1}, {}, {0: 1}, {1: 1}], [{0: 1}, {0: 1}, {}, {0: 1}],
              [{0: -1}, {1: 1}, {0: 1}, {1: 1}], [{1: 1}, {0: 1}, {1: -1}, {}]])
    def test_unit_heavy_matrices_match_leibniz(self, matrix):
        assert_matches_leibniz(matrix)

    def test_seifert_determinant_makes_one_product_and_no_sum(self, monkeypatch):
        # the unit phase runs on term dicts; the one polynomial product is the final unit times det C'
        rep = q_rep(6)
        grid = seifert_grid(rep)
        calls = {"__init__": 0, "__mul__": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(LaurentPolynomial, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(LaurentPolynomial, name, counted)
        mat_det(grid)
        # built: the unit sign t^low, det C' unpacked, and their product
        assert calls == {"__init__": 3, "__mul__": 1}
        # no matrix entry on either route is a polynomial: the Seifert route adds the canonical
        # form, the Burau route the divisor 1 + t + ... + t^6, the quotient and the canonical form
        routes = ((alexander_from_seifert, seifert_matrix(rep), 4), (alexander_from_braid, beta(rep), 6))
        for route, arg, built in routes:
            calls["__init__"] = 0
            route(arg)
            assert calls["__init__"] == built, route

    def test_input_is_not_mutated(self):
        # a unit step on row 0 fills in rows 1 and 2; no unit in column 0, so every step is packed.
        # Both hold a stored zero, which the copy drops.
        unit_case = [[{0: 1}, {1: 1}, {0: 2}], [{1: 1}, {0: 1, 1: 1}, {-1: 0}], [{0: -1}, {2: 1}, {0: 5}]]
        packed_case = [[{0: 2}, {0: 1, 1: 1}, {0: 4}], [{0: 3}, {1: 2, 2: 0}, {0: 8}], [{0: 1, 1: 1}, {0: 3}, {1: 1}]]
        for matrix in (unit_case, packed_case):
            before = copy.deepcopy(matrix)
            assert_matches_leibniz(matrix)
            assert matrix == before

    @given(square_matrices, st.data())
    @settings(max_examples=30, deadline=None)
    def test_swapping_two_rows_negates(self, matrix, data):
        i, j = data.draw(st.lists(st.integers(0, len(matrix) - 1), min_size=2, max_size=2, unique=True))
        swapped = list(matrix)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert mat_det(swapped) == L({0: -1}) * mat_det(matrix)

    def test_seifert_determinants_are_pinned(self):
        # det(V - t V^T) as mat_det returns it, before canonical(); q_rep(6) and nabla(6) present one fiber
        q5 = {0: 1, 1: -1, 5: -3, 6: 3, 10: 3, 11: -3, 15: -1, 16: 1}
        q6 = {0: -1, 1: 1, 6: 4, 7: -4, 12: -6, 13: 6, 18: 4, 19: -4, 24: -1, 25: 1}
        assert as_dict(mat_det(seifert_grid(q_rep(5)))) == q5
        assert as_dict(mat_det(seifert_grid(q_rep(6)))) == q6
        assert as_dict(mat_det(seifert_grid(nabla(6)))) == q6


class TestBurau:
    @given(braid_words(max_strands=8, max_length=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_fold(self, word):
        assert reduced_burau(word) == naive_fold(word)

    @given(long_words())
    @example(BraidWord(8, ((7, 1),) * 40 + ((1, 1),) * 40))
    @example(BraidWord(8, ((1, -1),) * 40 + ((7, -1),) * 40))
    @settings(max_examples=30, deadline=None)
    def test_long_words_match_naive_fold(self, word):
        # one-signed words reach the extreme exponents, and the negative ones give negative keys
        assert reduced_burau(word) == naive_fold(word)

    def test_edge_slabs_match_naive_fold(self):
        # a letter at either edge multiplies a slab of two columns, or of one on 2 strands
        for letters in ([1], [-1], [1, 1], [-1, -1, 1], [1, -1, -1, 1, 1]):
            word = word_from_letters(2, letters)
            assert reduced_burau(word) == naive_fold(word)
        for n in range(3, 7):
            mixed = list(range(1, n)) + [-i for i in range(n - 1, 0, -1)] + [n - 1, -1]
            for edge in (1, -1, n - 1, 1 - n):
                for letters in ([edge], [edge, edge], mixed + [edge], [edge] + mixed + [edge]):
                    word = word_from_letters(n, letters)
                    assert reduced_burau(word) == naive_fold(word), (n, letters)

    @given(cancelling_words())
    @settings(max_examples=60, deadline=None)
    def test_free_reduction_keeps_the_matrix(self, word):
        reduced = BraidWord(word.strands, free_reduction(word.letters))
        assert reduced_burau(reduced) == reduced_burau(word)
        assert reduced_burau(word) == naive_fold(word)

    def test_the_fiber_word_costs_one_mat_mul_per_reduced_letter(self, monkeypatch):
        # beta(q_rep(6)) has 1,250 letters, 210 of them left after free reduction
        calls = []

        def counting(columns, r, sign):
            calls.append(None)
            return mat_mul(columns, r, sign)

        monkeypatch.setattr(invariants, "mat_mul", counting)
        alexander_from_braid(beta(q_rep(6)))
        assert len(calls) == 210

    @pytest.mark.parametrize("n", [2, 6, MAX_N])
    def test_the_fiber_paths_expand_no_band(self, n, monkeypatch, tmp_path, capsys):
        # verify_fiber and the invariants verb build the reduced word from the bands: no beta,
        # and one mat_mul per letter left after free reduction
        reduced = {model: len(free_reduction(beta(model(n)).letters)) for model in (q_rep, nabla)}
        expanded, calls = [], []

        def counting_beta(rep):
            expanded.append(rep)
            return beta(rep)

        def counting(columns, r, sign):
            calls.append(None)
            return mat_mul(columns, r, sign)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("qpfiber") and getattr(module, "beta", None) is beta:
                monkeypatch.setattr(module, "beta", counting_beta)
        monkeypatch.setattr(invariants, "mat_mul", counting)
        verify_fiber(n)
        assert expanded == []
        assert len(calls) == reduced[q_rep] + reduced[nabla]
        for model in (q_rep, nabla):
            calls.clear()
            path = tmp_path / "rep.json"
            path.write_text(json.dumps(model(n).to_json()))
            assert cli.run(["invariants", "--input", str(path)]) == 0
            capsys.readouterr()
            assert expanded == []
            assert len(calls) == reduced[model]

    def test_the_fiber_word_costs_few_exact_divisions(self, monkeypatch):
        # the unit phase clears most columns of rho(beta(q_rep(6))) - I with no division, and the
        # Bareiss steps divide packed integers: the one polynomial division is by 1 + t + ... + t^6
        calls = []
        divide = LaurentPolynomial.exact_div

        def counting(self, divisor):
            calls.append(None)
            return divide(self, divisor)

        monkeypatch.setattr(LaurentPolynomial, "exact_div", counting)
        alexander_from_braid(beta(q_rep(6)))
        assert len(calls) == 1

    def test_entries_are_unshared(self):
        # changing one entry changes no other entry and no later result
        for word in (BraidWord(4, ()), word_from_letters(4, [1, -2, 3, 1, 2, -3]), beta(q_rep(3))):
            matrix = reduced_burau(word)
            before = copy.deepcopy(matrix)
            cells = [(i, j) for i in range(len(matrix)) for j in range(len(matrix))]
            for i, j in cells:
                matrix[i][j][99] = 7
                assert [(r, c) for r, c in cells if matrix[r][c] != before[r][c]] == [(i, j)]
                del matrix[i][j][99]
            for i, j in cells:
                matrix[i][j].clear()
            assert reduced_burau(word) == before

    def test_empty_word_is_identity(self):
        assert reduced_burau(BraidWord(2, ())) == dict_identity(1)

    def test_inverse_pair(self):
        assert reduced_burau(word_from_letters(3, [1, -1])) == dict_identity(2)
        assert reduced_burau(word_from_letters(4, [-2, 2])) == dict_identity(3)

    def test_braid_relations(self):
        for n in (3, 4, 5):
            for i in range(1, n - 1):
                a = word_from_letters(n, [i, i + 1, i])
                b = word_from_letters(n, [i + 1, i, i + 1])
                assert reduced_burau(a) == reduced_burau(b)
        a = reduced_burau(word_from_letters(4, [1, 3]))
        b = reduced_burau(word_from_letters(4, [3, 1]))
        assert a == b

    @given(braid_words(max_strands=4, max_length=5), braid_words(max_strands=4, max_length=5))
    @settings(max_examples=40)
    def test_homomorphism(self, w1, w2):
        n = max(w1.strands, w2.strands)
        w1, w2 = w1.retag(n), w2.retag(n)
        want = naive_product(reduced_burau(w1), reduced_burau(w2))
        assert reduced_burau(w1 * w2) == want

    @given(braid_words(max_strands=4, max_length=6))
    @settings(max_examples=40)
    def test_determinant_at_one_is_permutation_sign(self, word):
        det = sum(mat_det(reduced_burau(word)).coeffs)
        sign = -1 if len(word.letters) % 2 else 1
        assert det == sign


# An oracle for the braid route sharing no code with LaurentPolynomial,
# mat_mul or mat_det: rho(w) evaluated at an integer t0 modulo the prime P by
# a dense product of integer generator matrices, and det(rho(t0) - I) by
# plain Gaussian elimination.  A wrong polynomial of degree d agrees at one
# point with probability at most about d / P.

P = 2**61 - 1


def modular_burau(word, t0):
    """rho(word) at t = t0, mod P, as a dense product of generator matrices."""
    size = word.strands - 1
    t_inv = pow(t0, -1, P)
    generator_columns = {}
    for i in range(1, word.strands):
        for sign, column in ((1, (t0, -t0, 1)), (-1, (1, -t_inv, t_inv))):
            generator = [[int(r == c) for c in range(size)] for r in range(size)]
            for d, entry in zip((i - 2, i - 1, i), column):
                if 0 <= d < size:
                    generator[d][i - 1] = entry % P
            generator_columns[i, sign] = list(zip(*generator))
    product = [[int(r == c) for c in range(size)] for r in range(size)]
    for letter in word.letters:
        columns = generator_columns[letter]
        product = [[sum(map(mul, row, column)) % P for column in columns] for row in product]
    return product


def modular_det(matrix):
    """Determinant mod P by Gaussian elimination."""
    m = [list(row) for row in matrix]
    det = 1
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % P
        inverse = pow(m[k][k], -1, P)
        for r in range(k + 1, len(m)):
            factor = m[r][k] * inverse % P
            if factor:
                m[r] = [(x - factor * y) % P for x, y in zip(m[r], m[k])]
    return det % P


def burau_det_mod_p(word, t0):
    """det(rho(t0) - I) mod P."""
    rho = modular_burau(word, t0)
    return modular_det([[(x - (r == c)) % P for c, x in enumerate(row)] for r, row in enumerate(rho)])


def unit_multiples(value, t0, reach):
    """Every +-t0^j value mod P with |j| <= reach."""
    up = down = value
    out = {value}
    t_inv = pow(t0, -1, P)
    for _ in range(reach):
        up, down = up * t0 % P, down * t_inv % P
        out.update((up, down))
    return out | {-v % P for v in out}


def alexander_agrees_mod_p(word, delta):
    """det(rho(t0) - I) = +-t0^j delta(t0) (1 + t0 + ... + t0^(n-1)) mod P at t0 = 2, 3, 5.

    `delta` is a coefficient list, constant term first.  Entries of rho(w)
    have exponents within +-len(w), so j stays within (n - 1) len(w).
    """
    n = word.strands
    reach = (n - 1) * len(word.letters)
    for t0 in (2, 3, 5):
        value = sum(c * pow(t0, e, P) for e, c in enumerate(delta)) * sum(pow(t0, e, P) for e in range(n)) % P
        if burau_det_mod_p(word, t0) not in unit_multiples(value, t0, reach):
            return False
    return True


def dense_word(strands, length):
    """A seeded random word with no structure: the letters of Random(7)."""
    rng = random.Random(7)
    return BraidWord(strands, tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)))


class TestModularBurau:
    @pytest.mark.parametrize("strands, length", [(3, 2000), (6, 1000)])
    def test_long_dense_words_match_entry_by_entry(self, strands, length):
        word = dense_word(strands, length)
        matrix = reduced_burau(word)
        for t0 in (2, 3):
            values = [[sum(c * pow(t0, e, P) for e, c in entry.items()) % P for entry in row] for row in matrix]
            assert values == modular_burau(word, t0), t0


class TestModularDeterminant:
    def test_fiber_words(self):
        for k in range(2, 6):
            word = beta(q_rep(k))
            assert alexander_agrees_mod_p(word, alexander_from_braid(word).coefficient_list()), k

    def test_seeded_signed_words(self):
        rng = random.Random(20701)
        for _ in range(30):
            n = rng.randint(2, 7)
            word = word_from_letters(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 16))])
            assert alexander_agrees_mod_p(word, alexander_from_braid(word).coefficient_list()), word

    def test_a_wrong_polynomial_is_refused(self):
        word = beta(q_rep(4))
        delta = alexander_from_braid(word).coefficient_list()
        assert not alexander_agrees_mod_p(word, [delta[0] + 1] + delta[1:])
        assert not alexander_agrees_mod_p(word, delta + [1])


class TestAlexanderFromBraid:
    def test_unknot(self):
        assert alexander_from_braid(word_from_letters(2, [1])) == L({0: 1})
        assert alexander_from_braid(BraidWord(1, ())) == L({0: 1})

    def test_trefoil(self):
        assert alexander_from_braid(word_from_letters(2, [1, 1, 1])) == L({0: 1, 1: -1, 2: 1})

    def test_hopf_link(self):
        assert alexander_from_braid(word_from_letters(2, [1, 1])) == L({0: 1, 1: -1})

    def test_split_unlink_vanishes(self):
        assert not alexander_from_braid(BraidWord(2, ()))

    @given(braid_words(max_strands=4, max_length=5))
    @settings(max_examples=25, deadline=None)
    def test_markov_conjugation_invariance(self, word):
        rng = random.Random(len(word.letters) * 31 + word.strands)
        g = word_from_letters(
            word.strands,
            [rng.choice([1, -1]) * rng.randint(1, word.strands - 1) for _ in range(2)],
        )
        conjugated = g * word * g.inverse()
        assert alexander_from_braid(word) == alexander_from_braid(conjugated)

    @given(braid_words(max_strands=4, max_length=5))
    @settings(max_examples=25, deadline=None)
    def test_markov_positive_stabilization(self, word):
        stabilized = BraidWord(word.strands + 1, word.letters + ((word.strands, 1),))
        assert alexander_from_braid(word) == alexander_from_braid(stabilized)


class TestSeifert:
    def test_empty(self):
        assert seifert_matrix(BandRepresentation(3, ())) == ()
        assert alexander_from_seifert(()) == L({0: 1})

    def test_hopf_band(self):
        assert seifert_matrix(HOPF) == ((-1,),)

    def test_trefoil_matrix(self):
        v = seifert_matrix(TREFOIL)
        # congruent to [[-1, 1], [0, -1]]; frozen as computed, checked by the
        # determinant pair which is congruence-invariant
        target = ((-1, 1), (0, -1))
        assert len(v) == 2
        det = lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0]
        sym = lambda m: tuple(tuple(m[i][j] + m[j][i] for j in range(2)) for i in range(2))
        assert det(v) == det(target)
        assert det(sym(v)) == det(sym(target))

    @given(band_representations(max_strands=6, max_bands=9))
    @example(BandRepresentation(2, ()))
    @example(BandRepresentation(2, (EmbeddedBand(1, 2, -1),)))
    @example(BandRepresentation(2, (EmbeddedBand(1, 2, -1),) * 4))
    @example(BandRepresentation(3, (EmbeddedBand(1, 3, 1), EmbeddedBand(1, 3, -1), EmbeddedBand(1, 3, 1))))
    @example(BandRepresentation(
        5, (EmbeddedBand(1, 2, -1), EmbeddedBand(1, 2, -1), EmbeddedBand(3, 5, 1), EmbeddedBand(3, 5, -1))
    ))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_pl_model(self, rep):
        """Entry for entry.

        The examples: no band, one band, a band repeated four times (three
        cycles cross the first copy, so one has the middle slot) and two
        disconnected surfaces.
        """
        assert seifert_matrix(rep) == pl_seifert_matrix(rep)

    def test_equals_the_pl_model_on_every_small_representation(self):
        """Every representation on at most 4 strands with at most 3 bands, both signs."""
        cases = 0
        for n in range(1, 5):
            choices = [EmbeddedBand(i, j, s) for i in range(1, n) for j in range(i + 1, n + 1) for s in (1, -1)]
            for k in range(4):
                for bands in itertools.product(choices, repeat=k):
                    rep = BandRepresentation(n, bands)
                    assert seifert_matrix(rep) == pl_seifert_matrix(rep), rep.to_json()
                    cases += 1
        assert cases == 1 + 15 + 259 + 1885

    def test_alexander_from_matrices(self):
        assert alexander_from_seifert(((-1,),)) == L({0: 1, 1: -1})
        assert alexander_from_seifert(((-1, 1), (0, -1))) == L({0: 1, 1: -1, 2: 1})

    def test_size_formula(self, rng):
        from qpfiber.sampling import random_band_representation

        for _ in range(40):
            rep = random_band_representation(rng, 5, 6)
            comps = len(summary(BraidedSurface(rep)).components)
            expected = len(rep.bands) - rep.strands + comps
            assert len(seifert_matrix(rep)) == expected

    def test_cross_oracle_smoke(self, rng):
        from qpfiber.sampling import random_connected_representation

        for _ in range(25):
            rep = random_connected_representation(rng, 4, 5, positive_only=True)
            a = alexander_from_seifert(seifert_matrix(rep))
            b = alexander_from_braid(beta(rep))
            assert a == b, rep.to_json()

    def test_cross_oracle_with_negative_bands(self, rng):
        from qpfiber.sampling import random_band_representation

        done = 0
        while done < 25:
            rep = random_band_representation(rng, 4, 5, min_strands=2)
            if len(summary(BraidedSurface(rep)).components) != 1:
                continue
            done += 1
            a = alexander_from_seifert(seifert_matrix(rep))
            b = alexander_from_braid(beta(rep))
            assert a == b, rep.to_json()

    def test_both_routes_return_their_canonical_form(self, rng):
        # the cross-oracle and verify_fiber compare the two routes' results by ==
        from qpfiber.sampling import random_band_representation, random_connected_representation

        reps = [build(n) for build in (q_rep, nabla) for n in range(2, 7)]
        reps += [random_connected_representation(rng, 4, 5, positive_only=True) for _ in range(20)]
        reps += [random_band_representation(rng, 4, 5, min_strands=2) for _ in range(20)]
        reps.append(BandRepresentation(1, ()))  # a 1-strand word: both routes give 1
        # sigma_1 sigma_1^-1: a connected annulus bounding the split 2-component unlink, whose polynomial is 0
        reps.append(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, -1))))
        zero = 0
        for rep in reps:
            for result in (alexander_from_seifert(seifert_matrix(rep)), alexander_from_braid(beta(rep))):
                assert result == result.canonical(), rep.to_json()
                zero += not result
        assert zero >= 2
