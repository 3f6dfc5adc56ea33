"""Independent link-invariant oracles.

Two routes to the Alexander polynomial are kept deliberately separate so
they can cross-check each other:

* reduced Burau matrices of the braid word, with
  ``det(rho(w) - I) / (1 + t + ... + t^(n-1))``;
* an integer Seifert matrix of the braided surface, with ``det(V - tV^T)``.

Both reduce to arithmetic in Z[t, t^-1].  A `LaurentPolynomial` is stored
as its lowest exponent and the tuple of coefficients from there up, with no
zero at either end, so equal polynomials store equal pairs; sums align two
lists and products convolve them.

The Seifert matrix is computed from honest geometry: basis cycles of the
surface's handle graph are laid out as explicit piecewise-linear loops in
3-space (disks in the planes x = s, bands dipping to y < 0 with the
transverse order through a band reversed by its half-twist), the positive
pushoff displaces a loop along the surface normal field (+x on the disks,
rotating through the band twists), and entries are exact linking numbers of
the pushed-off loop with the other basis loops.  The model is built on one
integer lattice per surface (see ``seifert_matrix``), so every point is a
triple of ints; one uniform positive scale leaves every linking number as
it is.  The handedness of a positive half-twist is the one calibration
point; it is pinned by the positive Hopf band having Seifert matrix [-1].

Burau convention: letters act left to right, matching the permutation
convention; the generator matrices are the standard reduced ones with
sigma_i mapping to the identity apart from column i, which reads
(t, -t, 1) on rows i-1, i, i+1 (1-based, truncated at the edges), and
sigma_i^-1 apart from its column (1, -t^-1, t^-1), so det(rho(sigma_i)) =
-t.  Right multiplication by a generator therefore changes one column of
the running product: the new column is the slab of its at most three
neighbouring columns times the generator's column, O(n) polynomial
products per letter on n strands (see ``reduced_burau``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._linking import linking_number
from .braidcore import BandRepresentation, BraidWord, fundamental_cycles
from .errors import InvalidParameter, NonExactDivision


# ---------------------------------------------------------------------------
# Exact integer Laurent polynomials


class LaurentPolynomial:
    """An element of Z[t, t^-1], stored as `(low, coeffs)`.

    `coeffs[k]` is the coefficient of t^(low + k), and the tuple has no zero
    at either end; zero is `()` with `low = 0`.  So equal polynomials store
    equal pairs.  The constructor trims both ends of the ints it is given.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs=(), low=0):
        start, end = 0, len(coeffs)
        while start < end and not coeffs[start]:
            start += 1
        while end > start and not coeffs[end - 1]:
            end -= 1
        self.low = low + start if start < end else 0
        self.coeffs = tuple(coeffs[start:end])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __add__(self, other, sign=1):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign == 1 else -other
        low = min(self.low, other.low)
        out = [0] * (max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low)
        for k, c in enumerate(self.coeffs, self.low - low):
            out[k] = c
        for k, c in enumerate(other.coeffs, other.low - low):
            out[k] += sign * c
        return LaurentPolynomial(out, low)

    def __neg__(self):
        return LaurentPolynomial([-c for c in self.coeffs], self.low)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a monomial factor shifts and scales; a nonzero scalar keeps both ends nonzero
            c = b[0]
            return LaurentPolynomial(a if c == 1 else [c * x for x in a], self.low + other.low)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                out[k] += x * y
        return LaurentPolynomial(out, self.low + other.low)

    def canonical(self) -> "LaurentPolynomial":
        """Unit-normalized form: lowest exponent 0, lowest coefficient > 0."""
        if self.coeffs and self.coeffs[0] < 0:
            return LaurentPolynomial([-c for c in self.coeffs])
        return LaurentPolynomial(self.coeffs)

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division in Z[t, t^-1] by top-down long division; raises NonExactDivision otherwise."""
        den = divisor.coeffs
        if not den:
            raise NonExactDivision("division by zero polynomial")
        if not self.coeffs:
            return _ZERO
        num = list(self.coeffs)
        top, lead = len(den) - 1, den[-1]
        quot = [0] * max(len(num) - top, 0)
        for k in range(len(quot) - 1, -1, -1):
            c = num[k + top]
            if c:
                if c % lead:
                    raise NonExactDivision("leading coefficient does not divide")
                q = quot[k] = c // lead
                for j, d in enumerate(den, k):
                    num[j] -= q * d
        if any(num[:top]):
            raise NonExactDivision("remainder left by polynomial division")
        return LaurentPolynomial(quot, self.low - divisor.low)

    def coefficient_list(self) -> list[int]:
        """Dense coefficients of the canonical form, constant term first."""
        return list(self.canonical().coeffs) or [0]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs, self.low):
            if c:
                term = f"{c}" if e == 0 else (f"{c}*t^{e}" if e != 1 else f"{c}*t")
                parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def eq_up_to_units(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True iff p = +-t^j q."""
    return p.canonical() == q.canonical()


# ---------------------------------------------------------------------------
# Matrices over Z[t, t^-1]

Matrix = tuple[tuple[LaurentPolynomial, ...], ...]


_ZERO = LaurentPolynomial()
_ONE = LaurentPolynomial([1])


def identity_matrix(n: int) -> Matrix:
    rows = [[_ZERO] * n for _ in range(n)]
    for d in range(n):
        rows[d][d] = _ONE
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, computed column by column of b over that column's support.

    A column of b costs at most len(a) * (its support) polynomial products.
    `reduced_burau` multiplies an n x (at most 3) slab by one generator
    column per letter, so a letter costs O(n) products and O(n) entry
    references.  Entries may be shared between a, b and the result; no
    LaurentPolynomial is ever mutated, so sharing is safe.
    """
    rows, cols = len(a), len(b[0]) if b else 0
    if not a or not cols:
        return ((),) * rows
    a_columns = tuple(zip(*a))
    columns = []
    for b_column in zip(*b):
        # the identity test skips the attribute lookup on shared zeros
        support = [(k, entry) for k, entry in enumerate(b_column) if entry is not _ZERO and entry.coeffs]
        column = [_ZERO] * rows
        for k, entry in support:
            for i, factor in enumerate(a_columns[k]):
                if factor is not _ZERO and factor.coeffs:
                    column[i] = column[i] + factor * entry
        columns.append(column)
    return tuple(zip(*columns))


def mat_det(matrix: Matrix) -> LaurentPolynomial:
    """Fraction-free Bareiss determinant over Z[t, t^-1]."""
    n = len(matrix)
    if n == 0:
        return _ONE
    m = [list(row) for row in matrix]
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot_row is None:
                return _ZERO
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = _ZERO
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


# ---------------------------------------------------------------------------
# Reduced Burau and the braid route to Alexander


# column r of sigma_i and of sigma_i^-1 on rows r-1, r, r+1, for r = i-1, as 3 x 1 matrices
_SIGMA = ((LaurentPolynomial([1], 1),), (LaurentPolynomial([-1], 1),), (_ONE,))
_SIGMA_INVERSE = ((_ONE,), (LaurentPolynomial([-1], -1),), (LaurentPolynomial([1], -1),))


def reduced_burau(word: BraidWord) -> Matrix:
    """Image of the word under the reduced Burau representation.

    Letters multiply left to right: rho(w1 w2) = rho(w1) rho(w2).  The
    running product is kept as a list of columns; sigma_i^+-1 replaces
    column r = i-1 by the slab of columns r-1, r, r+1 times the generator's
    column, both truncated at the matrix edge.
    """
    if word.strands < 2:
        raise InvalidParameter("reduced Burau needs at least 2 strands")
    size = word.strands - 1
    columns = list(identity_matrix(size))  # the identity is symmetric: its rows are its columns
    for i, sign in word.letters:
        r = i - 1
        lo, hi = max(r - 1, 0), min(r + 2, size)
        generator_column = (_SIGMA if sign == 1 else _SIGMA_INVERSE)[lo - r + 1:hi - r + 1]
        columns[r] = next(zip(*mat_mul(tuple(zip(*columns[lo:hi])), generator_column)))
    return tuple(zip(*columns))


def alexander_from_braid(word: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure, canonical up to units."""
    n = word.strands
    if n == 1:
        return _ONE
    diff = tuple(
        tuple(entry - _ONE if i == j else entry for j, entry in enumerate(row))
        for i, row in enumerate(reduced_burau(word))
    )
    return mat_det(diff).exact_div(LaurentPolynomial([1] * n)).canonical()


# ---------------------------------------------------------------------------
# Seifert matrices of braided surfaces


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert matrix on the fundamental cycles of the handle graph."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def _basis_cycles(rep: BandRepresentation):
    """One cycle per co-tree band: ordered (band_pos, direction) traversals.

    direction +1 means the traversal runs from disk i to disk j of the band.
    The forest is the handle graph's `fundamental_cycles` forest, bands
    taken by height: the one `graphcalc.cycle_words` reduces its words on.
    """
    return fundamental_cycles([(band.i, band.j) for band in rep.bands])[1]


# The PL model lies on an integer lattice of spacing `scale` (see
# `seifert_matrix`): disk s in the plane x = s * scale, band pos between the
# heights pos * scale and (pos + 1) * scale, the foot of every band at
# y = -scale.  The pushoff distance scale / 256 and the spacing scale / 4096
# of parallel strips through a band stay tiny against that spacing.
# Handedness of a positive half-twist (which parallel strip passes in front,
# and which way the surface normal rotates along the band).  Pinned by the
# positive Hopf band: Seifert matrix [-1].
_TWIST = -1


def _cycle_loops(rep, slot_map, traversals, cycle_index, scale):
    """Core loop and its positive pushoff, as explicit PL point lists."""
    delta, eta = scale // 256, scale // 4096
    corridor_y, foot_y = (cycle_index + 2) * scale, -scale
    core = []
    push = []
    for pos, direction in traversals:
        band = rep.bands[pos]
        slots = slot_map[pos]
        count = len(slots)
        p = slots.index(cycle_index)
        step = scale // (count + 1)
        z_i = pos * scale + (p + 1) * step
        z_j = pos * scale + (count - p) * step
        twist = _TWIST * band.sign
        # z_i + z_j = (2 pos + 1) scale, so the midpoint height is exact
        mid_x, mid_z = (band.i + band.j) * scale // 2, pos * scale + scale // 2
        mid = (mid_x, foot_y - twist * (2 * p - (count - 1)) * eta, mid_z)
        mid_push = (mid_x, mid[1], mid_z + twist * delta)
        # direction +1 runs from disk i to disk j, -1 the other way
        ends = [(band.i * scale, z_i, delta), (band.j * scale, z_j, -delta)]
        (x_from, z_from, dy_from), (x_to, z_to, dy_to) = ends[::direction]
        core += [
            (x_from, corridor_y, z_from),
            (x_from, foot_y, z_from),
            mid,
            (x_to, foot_y, z_to),
            (x_to, corridor_y, z_to),
        ]
        push += [
            (x_from + delta, corridor_y, z_from),
            (x_from + delta, foot_y + dy_from, z_from),
            mid_push,
            (x_to + delta, foot_y + dy_to, z_to),
            (x_to + delta, corridor_y, z_to),
        ]
    return core, push


def seifert_matrix(rep: BandRepresentation) -> SeifertMatrix:
    """Seifert matrix of S(rep) on the fundamental cycles of its handle graph.

    `scale` is one lattice spacing for the whole surface: 4096 times the lcm
    of count + 1 over the crossed bands, where count is the number of basis
    cycles crossing a band, so every point of every loop is an integer.
    """
    cycles = _basis_cycles(rep)
    if not cycles:
        return SeifertMatrix(())
    slot_map: dict[int, list[int]] = {}
    for index, traversals in enumerate(cycles):
        for pos, _ in traversals:
            slot_map.setdefault(pos, []).append(index)
    scale = 4096 * math.lcm(*(len(slots) + 1 for slots in slot_map.values()))
    loops = [_cycle_loops(rep, slot_map, traversals, index, scale) for index, traversals in enumerate(cycles)]
    size = len(cycles)
    entries = tuple(
        tuple(linking_number(loops[a][1], loops[b][0]) for b in range(size))
        for a in range(size)
    )
    return SeifertMatrix(entries)


def alexander_from_seifert(matrix: SeifertMatrix) -> LaurentPolynomial:
    """det(V - t V^T), canonical up to units; the 0x0 matrix gives 1."""
    size = matrix.size
    if size == 0:
        return _ONE
    v = matrix.entries
    grid = tuple(
        tuple(LaurentPolynomial([v[i][j], -v[j][i]]) for j in range(size)) for i in range(size)
    )
    return mat_det(grid).canonical()
