import random

import pytest

from hypothesis import strategies as st

from qpfiber.braidcore import BandRepresentation, BraidWord, EmbeddedBand
from qpfiber.graphcalc import CombedGraph


@st.composite
def band_representations(draw, max_strands=5, max_bands=6, positive_only=False):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    k = draw(st.integers(min_value=0, max_value=max_bands))
    bands = []
    for _ in range(k):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        j = draw(st.integers(min_value=i + 1, max_value=n))
        sign = 1 if positive_only else draw(st.sampled_from((1, -1)))
        bands.append(EmbeddedBand(i, j, sign))
    return BandRepresentation(n, tuple(bands))


@st.composite
def braid_words(draw, max_strands=5, max_length=8, positive_only=False):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    length = draw(st.integers(min_value=0, max_value=max_length))
    letters = []
    for _ in range(length):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        sign = 1 if positive_only else draw(st.sampled_from((1, -1)))
        letters.append((i, sign))
    return BraidWord(n, tuple(letters))


@pytest.fixture
def rng():
    return random.Random(97531)


def relisted(graph, rng):
    """The same graph, each disk listing its components in a random order."""
    disks = []
    for comps in graph.disks:
        comps = list(comps)
        rng.shuffle(comps)
        disks.append(tuple(comps))
    return CombedGraph(graph.host, tuple(disks))
