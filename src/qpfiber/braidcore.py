"""Braid words, embedded bands, and band representations.

Conventions fixed here and relied on everywhere else:

* strand indices are 1-based; a word in B_n uses letters ``(i, sign)`` with
  ``1 <= i <= n-1``;
* letters compose left to right: the first letter acts first, both for
  permutations and for the Burau matrices built on top of these words;
* a word is freely reduced only where it is read as a group element.
  `beta` keeps each letter of each band.  The Burau route reads the same
  word freely reduced, built band by band by `reduced_beta`, and
  `invariants.alexander_from_braid` still reduces any word it is given
  (`free_reduction`); `graphcalc.cycle_words` reduces its cycle words.
  There it is exact, since a letter next to its inverse is the identity in
  the group, and its Burau matrices are inverse exactly,
  rho(s_i) rho(s_i^-1) = I;
* the strand count is explicit on every value.  Re-tagging a word or
  representation into a larger braid group is a deliberate operation
  (`retag`), never an implicit coercion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidBand, InvalidParameter, InvalidWord


def json_int(value) -> int:
    """An integer field of a JSON document.

    Only a JSON integer is accepted.  ``int()`` would take ``true`` as 1,
    ``2.7`` as 2 and ``"5"`` as 5, so ``[1, 2.7, 1]`` would pass as the band
    (1, 2, 1).  Raises TypeError, which the ``from_json`` readers turn into
    their malformed-document error.
    """
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _require_int(what: str, strands) -> None:
    """Refuse a strand count that is not an integer, before it is compared."""
    if type(strands) is not int:  # not isinstance: True is an int
        raise InvalidParameter(f"{what} needs an integer strand count, got {strands!r}")


class UnionFind:
    """Disjoint sets of hashable items, with path halving.

    The one union-find of the package: components of handle graphs and
    combed graphs, Stallings folding, and the spanning forest of
    `fundamental_cycles` all use it.
    """

    def __init__(self, items: Iterable = ()):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Put a's set under b's root; a's old root, or None if already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        self.parent[ra] = rb
        return ra


def fundamental_cycles(edges) -> tuple[set[int], list[list[tuple[int, int]]]]:
    """A spanning forest of a multigraph and the fundamental cycle of each other edge.

    `edges` lists (tail, head) pairs; forest edges are chosen greedily in
    list order.  Each remaining edge e gives the cycle [(e, +1)] followed by
    the forest path from head back to tail, as (edge index, +1 if run tail
    to head, else -1).  Returns the forest's edge indices and the cycles in
    edge order.  The one spanning forest of the package: Seifert matrices
    and cycle words of combed graphs are taken on it.
    """
    sets = UnionFind(node for edge in edges for node in edge)
    forest = set()
    adjacency: dict = {node: [] for node in sets.parent}
    for e, (tail, head) in enumerate(edges):
        if sets.union(tail, head) is not None:
            forest.add(e)
            adjacency[tail].append((head, (e, 1)))
            adjacency[head].append((tail, (e, -1)))
    # root each tree; parent[node] = (parent node, step from parent to node)
    parent: dict = {}
    depth: dict = {}
    for root in adjacency:
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        for node in queue:
            for other, step in adjacency[node]:
                if other not in depth:
                    depth[other] = depth[node] + 1
                    parent[other] = (node, step)
                    queue.append(other)
    cycles = []
    for e, (tail, head) in enumerate(edges):
        if e in forest:
            continue
        rising, falling = [], []  # head up to the meeting node; tail up to it
        a, b = head, tail
        while a != b:
            if depth[a] >= depth[b]:
                a, (f, sign) = parent[a]
                rising.append((f, -sign))
            else:
                b, step = parent[b]
                falling.append(step)
        cycles.append([(e, 1)] + rising + falling[::-1])
    return forest, cycles


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_n, as a sequence of signed generators."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.strands) is not int or self.strands < 1:  # not isinstance: True is an int
            raise InvalidParameter(f"strand count must be an integer >= 1, got {self.strands!r}")
        object.__setattr__(self, "letters", tuple((i, s) for i, s in self.letters))
        for i, s in self.letters:
            if type(i) is not int or type(s) is not int:  # not isinstance: True is an int
                raise InvalidWord(f"letter ({i!r}, {s!r}) must hold two integers")
            if not 1 <= i <= self.strands - 1:
                raise InvalidWord(f"letter index {i} out of range for B_{self.strands}")
            if s not in (1, -1):
                raise InvalidWord(f"letter sign must be +1 or -1, got {s}")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise InvalidWord("cannot concatenate words with different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def retag(self, strands: int) -> "BraidWord":
        """The same word viewed in a larger braid group."""
        _require_int("retag", strands)
        if strands < self.strands:
            raise InvalidParameter("retag cannot shrink the strand count")
        return BraidWord(strands, self.letters)

    def is_positive(self) -> bool:
        return all(s == 1 for _, s in self.letters)

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": [[i, s] for i, s in self.letters]}

    @staticmethod
    def from_json(doc: dict) -> "BraidWord":
        try:
            return BraidWord(
                json_int(doc["strands"]), tuple((json_int(i), json_int(s)) for i, s in doc["letters"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidWord(f"malformed braid word document: {exc}") from exc


@dataclass(frozen=True)
class EmbeddedBand:
    """The band generator joining strands i and j in front of the strands between."""

    i: int
    j: int
    sign: int

    def __post_init__(self):
        if not all(type(x) is int for x in (self.i, self.j, self.sign)):
            raise InvalidBand(f"band ({self.i!r}, {self.j!r}, {self.sign!r}) must hold three integers")
        if self.sign not in (1, -1):
            raise InvalidBand(f"band sign must be +1 or -1, got {self.sign}")
        if not 1 <= self.i < self.j:
            raise InvalidBand(f"band requires 1 <= i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class BandRepresentation:
    """An ordered sequence of embedded bands in B_n."""

    strands: int
    bands: tuple[EmbeddedBand, ...]

    def __post_init__(self):
        if type(self.strands) is not int or self.strands < 1:  # not isinstance: True is an int
            raise InvalidParameter(f"strand count must be an integer >= 1, got {self.strands!r}")
        bands = tuple(
            b if isinstance(b, EmbeddedBand) else EmbeddedBand(*b) for b in self.bands
        )
        object.__setattr__(self, "bands", bands)
        for b in bands:
            if b.j > self.strands:
                raise InvalidBand(f"band ({b.i},{b.j}) does not fit in B_{self.strands}")

    def __len__(self):
        return len(self.bands)

    def retag(self, strands: int) -> "BandRepresentation":
        _require_int("retag", strands)
        if strands < self.strands:
            raise InvalidParameter("retag cannot shrink the strand count")
        return BandRepresentation(strands, self.bands)

    def to_json(self) -> dict:
        return {"strands": self.strands, "bands": [[b.i, b.j, b.sign] for b in self.bands]}

    @staticmethod
    def from_json(doc: dict) -> "BandRepresentation":
        try:
            return BandRepresentation(
                json_int(doc["strands"]),
                tuple(EmbeddedBand(json_int(i), json_int(j), json_int(s)) for i, j, s in doc["bands"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidBand(f"malformed band representation document: {exc}") from exc


def expand_band(band: EmbeddedBand, n: int) -> BraidWord:
    """Expand sigma_{i,j}^(sign) into generators in B_n.

    The word is (s_i, ..., s_{j-2}, s_{j-1}^sign, s_{j-2}^-1, ..., s_i^-1),
    of length 2(j-i)-1 and exponent sum equal to the band sign.
    """
    _require_int("expand_band", n)
    if band.j > n:
        raise InvalidBand(f"band ({band.i},{band.j}) does not fit in B_{n}")
    return BraidWord(n, tuple(_band_letters(band)))


def _band_letters(band: EmbeddedBand) -> list[tuple[int, int]]:
    """The letters of `expand_band`, unchecked: the caller validates the word they go into."""
    prefix = [(c, 1) for c in range(band.i, band.j - 1)]
    return prefix + [(band.j - 1, band.sign)] + [(c, -1) for c, _ in reversed(prefix)]


def free_reduction(letters: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The letters with every adjacent inverse pair cancelled, in one stack pass.

    Each letter (i, s) cancels an inverse letter (i, -s) directly before it
    in what is kept so far, else is kept.  The result has no adjacent
    inverse pair and is the same group element; letters are any
    (generator, +1 or -1) pairs, braid letters or the band-height letters
    of cycle words.
    """
    stack: list[tuple[int, int]] = []
    for i, s in letters:
        if stack and stack[-1] == (i, -s):
            stack.pop()
        else:
            stack.append((i, s))
    return stack


def beta(rep: BandRepresentation) -> BraidWord:
    """The braid word b(1)...b(k) of a band representation.

    The representation already holds every band in B_n, so the letters of
    each band are not checked on their own: the word's constructor checks
    each letter once.
    """
    letters: list[tuple[int, int]] = []
    for band in rep.bands:
        letters.extend(_band_letters(band))
    return BraidWord(rep.strands, tuple(letters))


def reduced_beta(rep: BandRepresentation) -> BraidWord:
    """`free_reduction(beta(rep).letters)` as a word, built band by band.

    A band (i, j, sign) is the prefix s_i ... s_{j-2}, the middle letter
    s_{j-1}^sign and the suffix s_{j-2}^-1 ... s_i^-1.  Over the letters
    kept so far, the prefix cancels tops (c, -1) for c = i, i+1, ...; once
    a prefix letter is kept, nothing else of the band can cancel.  If the
    whole prefix cancels, the middle letter may cancel the top, and then
    the suffix cancels tops (c, +1) for c = j-2, j-3, ..., which may reach
    into earlier bands.  The result is letter for letter that of
    `free_reduction`'s stack pass over the expanded word, but a letter that
    would cancel on arrival is never made.
    """
    stack: list[tuple[int, int]] = []
    for band in rep.bands:
        i, j, sign = band.i, band.j, band.sign
        c = i
        while c < j - 1 and stack and stack[-1] == (c, -1):
            stack.pop()
            c += 1
        if c < j - 1 or not stack or stack[-1] != (j - 1, -sign):
            stack.extend((d, 1) for d in range(c, j - 1))
            stack.append((j - 1, sign))
            c = j - 2
        else:
            stack.pop()
            c = j - 2
            while c >= i and stack and stack[-1] == (c, 1):
                stack.pop()
                c -= 1
        stack.extend((d, -1) for d in range(c, i - 1, -1))
    return BraidWord(rep.strands, tuple(stack))


def is_quasipositive(rep: BandRepresentation) -> bool:
    return all(b.sign == 1 for b in rep.bands)


def permutation(word: BraidWord) -> tuple[int, ...]:
    """The strand permutation, as a tuple p with p[x-1] the image of x.

    Letters act left to right; each letter (i, sign) acts as the
    transposition (i, i+1) regardless of sign.
    """
    return _transpositions(word.strands, ((i, i + 1) for i, _ in word.letters))


def band_permutation(rep: BandRepresentation) -> tuple[int, ...]:
    """`permutation(beta(rep))`, without expanding the bands into letters.

    A band (i, j) expands to a conjugate of one letter, which acts on the
    positions as the transposition (i, j); the bands act left to right, as
    their letters do.
    """
    return _transpositions(rep.strands, ((band.i, band.j) for band in rep.bands))


def _transpositions(strands: int, swaps) -> tuple[int, ...]:
    perm = list(range(1, strands + 1))
    for a, b in swaps:
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
    # perm currently tracks positions; invert the bookkeeping so that
    # perm[x-1] is where strand x ends up.
    image = [0] * strands
    for pos, strand in enumerate(perm, start=1):
        image[strand - 1] = pos
    return tuple(image)


def permutation_cycles(word: BraidWord) -> list[tuple[int, ...]]:
    """Cycles of the strand permutation, each as a tuple of strand indices."""
    return cycles(permutation(word))


def cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation given as images, each from its least strand."""
    seen = [False] * len(perm)
    out = []
    for start in range(1, len(perm) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            cyc.append(x)
            x = perm[x - 1]
        out.append(tuple(cyc))
    return out


def exponent_sum(word: BraidWord) -> int:
    return sum(s for _, s in word.letters)
