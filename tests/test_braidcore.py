import pytest

from hypothesis import given, settings, strategies as st

from qpfiber.braidcore import (
    BandRepresentation,
    BraidWord,
    EmbeddedBand,
    band_permutation,
    beta,
    expand_band,
    exponent_sum,
    free_reduction,
    fundamental_cycles,
    is_quasipositive,
    permutation,
    permutation_cycles,
    reduced_beta,
)
from qpfiber.constructions import MAX_N, nabla, q_rep
from qpfiber.errors import InvalidBand, InvalidParameter, InvalidWord

from conftest import band_representations, braid_words, word_from_letters


def letters(word):
    return list(word.letters)


def test_expand_band_generator_case():
    assert letters(expand_band(EmbeddedBand(1, 2, 1), 2)) == [(1, 1)]


def test_expand_band_conjugated():
    assert letters(expand_band(EmbeddedBand(1, 3, 1), 3)) == [(1, 1), (2, 1), (1, -1)]


def test_expand_band_negative_wide():
    assert letters(expand_band(EmbeddedBand(2, 5, -1), 5)) == [
        (2, 1),
        (3, 1),
        (4, -1),
        (3, -1),
        (2, -1),
    ]


def test_expand_band_rejects_overflow():
    with pytest.raises(InvalidBand):
        expand_band(EmbeddedBand(2, 5, 1), 4)
    with pytest.raises(InvalidBand):
        EmbeddedBand(3, 3, 1)
    with pytest.raises(InvalidBand):
        EmbeddedBand(1, 2, 2)


def test_band_fields_must_be_integers():
    for fields in ((1.5, 2, 1), (1, 2.5, 1), (1, 2, 1.0), (True, 2, 1), (1, 2, True), ("1", 2, 1)):
        with pytest.raises(InvalidBand):
            EmbeddedBand(*fields)
    with pytest.raises(InvalidBand):
        BandRepresentation(3, ((1, 2.5, 1),))


def test_representation_strands_must_be_an_integer():
    for strands in (3.5, 3.0, True, "3", None):
        with pytest.raises(InvalidParameter):
            BandRepresentation(strands, ((1, 2, 1),))
    assert BandRepresentation(3, ((1, 2, 1),)).strands == 3


def test_beta_examples():
    assert letters(beta(BandRepresentation(3, ()))) == []
    rep = BandRepresentation(3, (EmbeddedBand(1, 2, 1), EmbeddedBand(2, 3, -1), EmbeddedBand(1, 3, 1)))
    assert letters(beta(rep)) == [(1, 1), (2, -1), (1, 1), (2, 1), (1, -1)]
    rep = BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1)))
    assert letters(beta(rep)) == [(1, 1), (1, 1)]


@given(band_representations(max_bands=4))
def test_beta_is_the_bands_expanded_in_order(rep):
    assert letters(beta(rep)) == [letter for band in rep.bands for letter in letters(expand_band(band, rep.strands))]


def test_beta_checks_its_letters_once(monkeypatch):
    checked = []
    check = BraidWord.__post_init__

    def counting(self):
        checked.append(len(self.letters))
        check(self)

    monkeypatch.setattr(BraidWord, "__post_init__", counting)
    rep = BandRepresentation(5, (EmbeddedBand(1, 4, 1), EmbeddedBand(2, 5, -1), EmbeddedBand(1, 2, 1)))
    assert len(beta(rep)) == 11
    assert checked == [11]


@st.composite
def nested_band_representations(draw, max_strands=6, max_steps=12):
    """Bands with low ends 1 or 2, some closed later by their inverses in nested order.

    A band and its inverse with only whole pairs between them cancel
    letter by letter, so the cancellation reaches back into earlier bands.
    """
    n = draw(st.integers(min_value=2, max_value=max_strands))
    bands, open_bands = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        if open_bands and draw(st.booleans()):
            band = open_bands.pop()
            bands.append(EmbeddedBand(band.i, band.j, -band.sign))
            continue
        i = draw(st.integers(min_value=1, max_value=min(2, n - 1)))
        band = EmbeddedBand(i, draw(st.integers(min_value=i + 1, max_value=n)), draw(st.sampled_from((1, -1))))
        bands.append(band)
        if draw(st.booleans()):
            open_bands.append(band)
    return BandRepresentation(n, tuple(bands))


@given(st.one_of(nested_band_representations(), band_representations(max_bands=8)))
@settings(max_examples=300)
def test_reduced_beta_is_the_free_reduction_of_beta(rep):
    assert reduced_beta(rep).letters == tuple(free_reduction(beta(rep).letters))


@pytest.mark.parametrize("model", [q_rep, nabla])
@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_reduced_beta_of_the_fiber_models(model, n):
    rep = model(n)
    assert reduced_beta(rep).letters == tuple(free_reduction(beta(rep).letters))


def test_reduced_beta_examples():
    assert letters(reduced_beta(BandRepresentation(3, ()))) == []
    # the second band cancels the first whole, middle letter included; the last two cancel nothing
    cascade = BandRepresentation(4, ((1, 4, 1), (1, 4, -1), (1, 3, -1), (2, 4, 1)))
    assert letters(reduced_beta(cascade)) == [(1, 1), (2, -1), (1, -1), (2, 1), (3, 1), (2, -1)]
    # a product of bands followed by its inverse cancels back to the empty word, band by band
    bands = (EmbeddedBand(1, 3, 1), EmbeddedBand(2, 5, -1), EmbeddedBand(1, 4, 1))
    inverse = tuple(EmbeddedBand(b.i, b.j, -b.sign) for b in reversed(bands))
    assert letters(reduced_beta(BandRepresentation(5, bands + inverse))) == []
    # the middle letter of (1, 3, 1) cancels a letter of (1, 4, 1), and its inverse puts it back
    rep = BandRepresentation(4, ((1, 4, 1), (1, 3, 1), (1, 3, -1)))
    assert letters(reduced_beta(rep)) == [(1, 1), (2, 1), (3, 1), (2, -1), (1, -1)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: BraidWord(3, ()).retag("3"),
        lambda: BraidWord(1, ()).retag(True),
        lambda: BandRepresentation(3, ()).retag(None),
        lambda: BandRepresentation(3, ()).retag(3.0),
        lambda: expand_band(EmbeddedBand(1, 2, 1), "3"),
        lambda: expand_band(EmbeddedBand(1, 2, 1), True),
    ],
    ids=["word-retag-str", "word-retag-bool", "rep-retag-none", "rep-retag-float", "expand-str", "expand-bool"],
)
def test_strand_counts_that_are_not_integers_are_refused(call):
    with pytest.raises(InvalidParameter):
        call()


def test_is_quasipositive():
    assert is_quasipositive(BandRepresentation(4, (EmbeddedBand(1, 3, 1), EmbeddedBand(2, 4, 1))))
    assert not is_quasipositive(BandRepresentation(3, (EmbeddedBand(1, 2, 1), EmbeddedBand(2, 3, -1))))
    assert is_quasipositive(BandRepresentation(3, ()))


def test_permutation_examples():
    assert permutation(BraidWord(3, ())) == (1, 2, 3)
    # (s1, s2) is a 3-cycle through all three strands
    perm = permutation(word_from_letters(3, [1, 2]))
    assert perm == (3, 1, 2)
    assert len(permutation_cycles(word_from_letters(3, [1, 2]))) == 1
    # the full twist is a pure braid
    assert permutation(beta(nabla(3))) == (1, 2, 3)


def test_exponent_sum_examples():
    assert exponent_sum(BraidWord(4, ())) == 0
    assert exponent_sum(beta(nabla(3))) == 6
    assert exponent_sum(beta(q_rep(3))) == 8


def test_word_validation():
    with pytest.raises(InvalidWord):
        BraidWord(2, ((2, 1),))
    with pytest.raises(InvalidWord):
        BraidWord(3, ((0, 1),))
    for letter in ((1.7, 1), (1, 1.0), (True, 1), (1, True), ("1", 1)):
        with pytest.raises(InvalidWord):
            BraidWord(3, (letter,))
    assert BraidWord(3, ([2, -1],)).letters == ((2, -1),)


def test_word_strands_must_be_an_integer():
    for strands in (True, False, 2.0, 2.5, "2", None):
        with pytest.raises(InvalidParameter):
            BraidWord(strands, ())
    assert BraidWord(1, ()).strands == 1


def test_retag_is_explicit():
    word = word_from_letters(2, [1, 1])
    assert word.retag(5).strands == 5
    with pytest.raises(Exception):
        word.retag(1)


def test_json_round_trips():
    rep = BandRepresentation(4, (EmbeddedBand(1, 4, -1), EmbeddedBand(2, 3, 1)))
    assert BandRepresentation.from_json(rep.to_json()) == rep
    word = word_from_letters(3, [1, -2, 1])
    assert BraidWord.from_json(word.to_json()) == word


@given(band_representations())
def test_expansion_preserves_exponent_sum(rep):
    assert exponent_sum(beta(rep)) == sum(b.sign for b in rep.bands)


@given(band_representations(max_bands=1))
def test_single_band_permutation_is_transposition(rep):
    perm = permutation(beta(rep))
    if not rep.bands:
        assert perm == tuple(range(1, rep.strands + 1))
    else:
        band = rep.bands[0]
        expected = list(range(1, rep.strands + 1))
        expected[band.i - 1], expected[band.j - 1] = band.j, band.i
        assert perm == tuple(expected)


@given(band_representations())
def test_band_permutation_is_the_expanded_words(rep):
    assert band_permutation(rep) == permutation(beta(rep))


@given(braid_words(), braid_words())
def test_permutation_is_a_homomorphism(w1, w2):
    if w1.strands != w2.strands:
        w1 = w1.retag(max(w1.strands, w2.strands))
        w2 = w2.retag(max(w1.strands, w2.strands))
    combined = permutation(w1 * w2)
    p1, p2 = permutation(w1), permutation(w2)
    assert combined == tuple(p2[p1[x - 1] - 1] for x in range(1, w1.strands + 1))


@given(band_representations(max_bands=4))
def test_expand_band_length(rep):
    for band in rep.bands:
        word = expand_band(band, rep.strands)
        assert len(word) == 2 * (band.j - band.i) - 1
        assert exponent_sum(word) == band.sign


@given(braid_words())
def test_inverse_word(word):
    assert permutation(word * word.inverse()) == tuple(range(1, word.strands + 1))


def test_free_reduction_examples():
    assert free_reduction([]) == []
    assert free_reduction([(1, 1), (1, -1)]) == []
    assert free_reduction([(1, 1), (1, 1)]) == [(1, 1), (1, 1)]  # only inverse letters cancel
    assert free_reduction([(1, 1), (2, -1)]) == [(1, 1), (2, -1)]
    assert free_reduction(word_from_letters(4, [1, 2, 3, -3, -2, 2, 1, -1, 3]).letters) == [(1, 1), (2, 1), (3, 1)]
    assert free_reduction(word_from_letters(3, [2, 1, -1, -2, -2]).letters) == [(2, -1)]


@settings(max_examples=200)
@given(braid_words(max_strands=4, max_length=24))
def test_free_reduction_is_a_reduced_form_of_the_same_braid(word):
    reduced = free_reduction(word.letters)
    assert all(b != (i, -s) for (i, s), b in zip(reduced, reduced[1:]))
    assert free_reduction(reduced) == reduced
    reduced_word = BraidWord(word.strands, tuple(reduced))
    assert permutation(reduced_word) == permutation(word)
    assert exponent_sum(reduced_word) == exponent_sum(word)
    assert free_reduction((word * word.inverse()).letters) == []


def test_free_reduction_of_the_fiber_words():
    # consecutive bands of q_rep(k) cancel most of each other's conjugating letters
    lengths = [len(free_reduction(beta(q_rep(k)).letters)) for k in range(2, 12)]
    assert lengths == [2, 12, 42, 104, 210, 372, 602, 912, 1314, 1820]
    assert [len(beta(q_rep(k))) for k in (6, 11)] == [1250, 20000]


@st.composite
def loop_free_multigraphs(draw):
    vertices = draw(st.integers(min_value=2, max_value=8))
    ends = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1)).filter(lambda e: e[0] != e[1])
    return draw(st.lists(ends, max_size=16))


def components(vertices, edges):
    """Connected components by depth-first search, without union-find."""
    adjacency = {v: [] for v in vertices}
    for tail, head in edges:
        adjacency[tail].append(head)
        adjacency[head].append(tail)
    seen, count = set(), 0
    for start in adjacency:
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adjacency[v])
    return count


@settings(max_examples=200)
@given(loop_free_multigraphs())
def test_fundamental_cycles_of_a_multigraph(edges):
    forest, cycles = fundamental_cycles(edges)
    vertices = {v for edge in edges for v in edge}
    count = components(vertices, edges)
    assert len(forest) == len(vertices) - count
    assert components(vertices, [edges[e] for e in forest]) == count
    assert len(cycles) == len(edges) - len(forest)
    # greedy in list order: an edge joins the forest iff earlier edges leave its ends apart
    for e in range(len(edges)):
        together = components(vertices, edges[:e]) == components(vertices, edges[: e + 1])
        assert (e in forest) == (not together)
    assert [cycle[0] for cycle in cycles] == [(e, 1) for e in range(len(edges)) if e not in forest]
    for cycle in cycles:
        assert all(e in forest for e, _sign in cycle[1:])
        start = at = edges[cycle[0][0]][0]
        visited = []
        for e, sign in cycle:
            tail, head = edges[e] if sign == 1 else edges[e][::-1]
            assert tail == at
            visited.append(at)
            at = head
        assert at == start
        assert len(set(visited)) == len(visited)  # a simple cycle
