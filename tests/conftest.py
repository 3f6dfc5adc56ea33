import random

import pytest

from hypothesis import strategies as st

from qpfiber.braidcore import BandRepresentation, BraidWord, EmbeddedBand
from qpfiber.constructions import q_rep
from qpfiber.graphcalc import ArcEnd, Comb, CombedGraph, FreeEnd, IsolatedPoint
from qpfiber.surface import BraidedSurface


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


def word_from_letters(strands, letters):
    """The word of signed integers: i > 0 for s_i, i < 0 for s_i^-1."""
    return BraidWord(strands, tuple((abs(v), 1 if v > 0 else -1) for v in letters))


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


def free_end_reaches_boundary(comps, ci, k):
    """Whether free end k of comb `ci`, among a disk's components `comps`, can reach host boundary.

    Brute force over the places where host boundary lies on the disk's
    boundary: below the first arc end, and between two neighboring arc ends
    into different bands.  The free end reaches one if, drawn to it as one
    more boundary point of its comb, the comb still meets its points in
    cyclic boundary order and no two combs cross.  Other free ends are left
    out: they take no position.
    """

    def points(teeth):
        return [(t.band, t.slot) for t in teeth if isinstance(t, ArcEnd)]

    combs = {j: comp.teeth for j, comp in enumerate(comps) if isinstance(comp, Comb)}
    ends = sorted(p for teeth in combs.values() for p in points(teeth))
    places = [(ends[0][0], -0.5)] if ends else []
    places += [(p[0], p[1] + 0.5) for p, q in zip(ends, ends[1:]) if p[0] != q[0]]
    others = [points(teeth) for j, teeth in combs.items() if j != ci]
    for place in places:
        own = [place if j == k else (t.band, t.slot)
               for j, t in enumerate(combs[ci]) if j == k or isinstance(t, ArcEnd)]
        descents = sum(own[j] > own[(j + 1) % len(own)] for j in range(len(own)))
        if descents <= 1 and not _blocks_cross(others + [own]):
            return True
    return not ends


def _blocks_cross(blocks):
    """Whether two of these sets of boundary points cross (interleave along the boundary)."""
    owner = {p: b for b, block in enumerate(blocks) for p in block}
    left = [len(block) for block in blocks]
    stack = []
    for p in sorted(owner):
        b = owner[p]
        if left[b] == len(blocks[b]):
            stack.append(b)
        elif stack[-1] != b:
            return True
        left[b] -= 1
        if not left[b]:
            stack.pop()
    return False


def with_free_ends(graph, rng):
    """The same graph with a free end in about half its combs.

    A free end goes only where it can reach host boundary
    (`free_end_reaches_boundary`), as `validate` requires.
    """
    disks = []
    for comps in graph.disks:
        row = list(comps)
        for ci, comp in enumerate(comps):
            if isinstance(comp, Comb) and rng.random() < 0.5:
                teeth = comp.teeth
                spots = [k for k in range(len(teeth) + 1) if free_end_reaches_boundary(
                    row[:ci] + [Comb(teeth[:k] + (FreeEnd(),) + teeth[k:])] + row[ci + 1 :], ci, k)]
                if spots:
                    k = rng.choice(spots)
                    row[ci] = Comb(teeth[:k] + (FreeEnd(),) + teeth[k:])
        disks.append(tuple(row))
    return CombedGraph(graph.host, tuple(disks))


def nested_partition_graph(rng, n):
    """A combed graph on S(q_n) whose combs on each disk are a random non-crossing partition of its arc ends.

    One walk along each disk's boundary keeps a stack of open combs: at each
    arc end it may close the top comb, then adds the end to the top comb or
    to a new one.  So combs nest, around dead ends among others.
    """
    host = BraidedSurface(q_rep(n))
    arcs = [0] * host.band_count()
    for _ in range(rng.randint(1, 8)):
        arcs[rng.randrange(len(arcs))] += 1
    disks = []
    for row in host.incidence:
        stack, combs = [], []
        for tooth in (ArcEnd(t, slot) for t in row for slot in range(arcs[t - 1])):
            if stack and rng.random() < 0.3:
                stack.pop()
            if not stack or rng.random() < 0.4:
                stack.append([])
                combs.append(stack[-1])
            stack[-1].append(tooth)
        comps = [Comb(tuple(teeth)) for teeth in combs] or [IsolatedPoint()]
        rng.shuffle(comps)
        disks.append(tuple(comps))
    return CombedGraph(host, tuple(disks))
