import random

import pytest

from hypothesis import given, settings, strategies as st

from qpfiber import _linking
from qpfiber._linking import linking_number
from qpfiber.constructions import nabla, q_rep
from qpfiber.errors import InternalError
from qpfiber.sampling import random_band_representation

# A square in the plane z = 0 around the origin.
SQUARE = [(-2, -2, 0), (2, -2, 0), (2, 2, 0), (-2, 2, 0)]
# Down through the square once, back up outside it.
THREADED_ONCE = [(0, 0, 1), (0, 0, -1), (4, 0, -1), (4, 0, 1)]
# Down through the square twice, back up outside it each time.
THREADED_TWICE = [(-1, 0, 2), (-1, 0, -1), (5, 0, -1), (5, 0, 1), (1, 1, 1), (1, 1, -2), (6, 1, -2), (6, 1, 2)]
# The once-threaded loop moved clear of the square.
SPLIT = [(x + 10, y, z) for x, y, z in THREADED_ONCE]

PAIRS = {"hopf": THREADED_ONCE, "twice": THREADED_TWICE, "split": SPLIT}


def test_hopf_pair_links_once_and_symmetrically():
    lk = linking_number(SQUARE, THREADED_ONCE)
    assert abs(lk) == 1
    assert linking_number(THREADED_ONCE, SQUARE) == lk


def test_reversing_one_loop_flips_the_sign():
    for loop in (THREADED_ONCE, THREADED_TWICE):
        lk = linking_number(SQUARE, loop)
        assert linking_number(SQUARE, loop[::-1]) == -lk
        assert linking_number(SQUARE[::-1], loop) == -lk


def test_twice_threaded_loop_links_twice_in_the_same_sense():
    assert linking_number(SQUARE, THREADED_TWICE) == 2 * linking_number(SQUARE, THREADED_ONCE)


def test_split_pair_does_not_link():
    assert linking_number(SQUARE, SPLIT) == 0


@given(
    st.sampled_from(sorted(PAIRS)),
    st.integers(min_value=1, max_value=10**6),
    st.tuples(*[st.integers(min_value=-(10**6), max_value=10**6)] * 3),
)
@settings(max_examples=60, deadline=None)
def test_positive_scaling_and_integer_translation_keep_the_value(name, scale, shift):
    """The homogeneity `pl_seifert_matrix` relies on when it picks one lattice per surface."""

    def moved(loop):
        return [tuple(scale * c + d for c, d in zip(point, shift)) for point in loop]

    loop = PAIRS[name]
    assert linking_number(moved(SQUARE), moved(loop)) == linking_number(SQUARE, loop)


def test_loops_that_meet_raise_internal_error():
    through_an_edge = [(2, 0, -1), (2, 0, 1), (5, 0, 1), (5, 0, -1)]
    with pytest.raises(InternalError):
        linking_number(SQUARE, through_an_edge)


def test_seifert_matrix_passes_integer_points(monkeypatch):
    seen = []

    def checked(loop_a, loop_b):
        seen.append(all(type(c) is int for loop in (loop_a, loop_b) for point in loop for c in point))
        return linking_number(loop_a, loop_b)

    monkeypatch.setattr(_linking, "linking_number", checked)
    rng = random.Random(20672)
    reps = [q_rep(4), nabla(4)] + [random_band_representation(rng, 6, 8, min_strands=2) for _ in range(10)]
    for rep in reps:
        _linking.pl_seifert_matrix(rep)
    assert seen and all(seen)
