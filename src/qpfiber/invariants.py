"""Independent link-invariant oracles.

Two routes to the Alexander polynomial are kept deliberately separate so
they can cross-check each other:

* reduced Burau matrices of the braid word, freely reduced first, with
  ``det(rho(w) - I) / (1 + t + ... + t^(n-1))``;
* an integer Seifert matrix of the braided surface, with ``det(V - tV^T)``.

Both end in one determinant over Z[t, t^-1], `mat_det`: Gaussian steps
while every pivot is a unit +-t^j, which divide by nothing, then
fraction-free Bareiss steps on what is left, on Python integers.  Each
entry left is packed as its value at t = 2^B (Kronecker substitution),
with B taken from Hadamard's bound, so that the determinant's
coefficients are read back as the signed base-2^B digits of the last
pivot.  On the fiber model q_rep(k), whose matrices on either route are
(k-1)^2 square, all but the last k - 1 (Seifert) or k (Burau) steps are
unit steps; on nabla(k) none is.  Every matrix entry, from
`reduced_burau` and `alexander_from_seifert` to `mat_det`, is a plain
{exponent: coefficient} dict, whose zero coefficients `mat_det` alone
drops: the unit steps convolve those dicts and the packing reads them.
`LaurentPolynomial` is the type of results only: the determinant, the
divisor 1 + t + ... + t^(n-1) and the Alexander polynomial.  It is stored
as its lowest exponent and the tuple of coefficients from there up, with
no zero at either end, so equal polynomials store equal pairs; a product
convolves the two tuples.  Both routes return the canonical form, so two
results agree up to units exactly when they are equal.

The Seifert matrix is a sum of integer terms read off band positions,
slots, traversal directions and band signs; no point is laid out.  The
terms are the crossings of one projection of a piecewise-linear model of
the surface, which `_linking.pl_seifert_matrix` builds with explicit points
and keeps as the reference oracle.  In that model (delta, eta and the tilt
below are tiny against every other distance, the tilt tiniest):

* disk s lies in the plane x = s, and band m (position m, joining disks
  i_m < j_m, sign e_m) in the slab of heights m < z < m + 1;
* the c_m basis cycles crossing band m take its slots p = 0..c_m-1 in cycle
  order.  Strip p meets disk i_m at height m + (p+1)/(c_m+1) and disk j_m
  at m + (c_m-p)/(c_m+1), both at the foot y = -1, and passes through the
  band's middle point, at height m + 1/2, at y = -1 + e_m (2p - c_m + 1) eta;
* cycle k joins the end of one band to the start of the next along a
  corridor at y = k + 2 in the plane of the disk, by legs from the foot;
* the pushoff a+ of cycle a moves delta along the surface normal: +x on
  the disks, +y where a band leaves disk i, -y where it reaches disk j, and
  -e_m delta in z at the band's middle.

theta(a, b) = lk(a+, b) is the signed count of crossings where a+ passes
over b, seen along (0, K, 1) for K -> oo: the image is the (z, x) plane,
tilted so that a larger y sits slightly lower; "over" is larger y; a
crossing counts +1 when the directions of a+ and b make a positive frame
of (z, x).  The corridors and legs of a+ lie on the lines x = s + delta
and those of b on x = s, so they never meet; strips of different bands lie
in disjoint slabs; b's corridors lie above every strip, and a+'s strips
pass x = j_m off b's leg there.  What is left are two kinds of crossing,
both with a+ over b:

* Corridor term.  a+'s corridor on disk s runs from the end of a's band
  m1 to the start of its band m2 != m1 (a cycle crosses a band at most
  once), dz = sign(m2 - m1).  It crosses b's strip through band m where
  that strip meets x = s + delta, so i_m <= s < j_m, if the strip's point
  lies strictly inside it.  That adds dz * d, where d = +1 if b runs
  through m from disk i to disk j.  Give the corridor's ends and the point
  the keys (band, slot), compared in lexicographic order.  If m is neither
  m1 nor m2, the point lies in slab m and the ends in theirs: inside iff m
  lies strictly between m1 and m2.  Otherwise s is an end of m, so
  s = i_m, where strips rise with their slot, and the point sits
  delta-close to its own slot's height: keys decide, unless they tie.  A
  tie has a = b, at the end of a's own band m, where the strip leaves
  towards the middle height: up iff q = c_m - 1 - 2p > 0.  At q = 0 the
  strip is flat, and the tilt sets the point just above the image of a+'s
  leg, whose foot stands delta higher in y.  So the point is inside iff
  the tie is at the corridor's low end and q >= 0, or at its high end and
  q < 0.
* Band term.  The strips of slots p_a != p_b of band m cross once: in the
  half next to disk i iff sign(p_a - p_b) = e_m, else in the half next to
  disk j.  a+ starts delta above the foot and ends delta below it, and its
  middle point is the higher one exactly in the first case, so only that
  crossing counts, with sign -e_m d_a d_b.  A strip and its own pushoff
  (p_a = p_b, so a = b) start apart by -sign(q) in z, with q = 0 counted
  as q > 0 by the tilt, and meet the middle apart by -e_m.  They cross in
  the half next to disk i iff these differ, with sign -e_m, which is
  (1 - e_m)/2 - [q < 0] in all four cases.

This is the technique of J. Collins, "An algorithm for computing the
Seifert matrix of a link from a braid representation" (2007), on
L. Rudolph's braided surfaces (Comment. Math. Helv. 58, 1983).  The
handedness of a positive half-twist is the one calibration point; it is
pinned by the positive Hopf band having Seifert matrix [-1].

Burau convention: letters act left to right, matching the permutation
convention; the generator matrices are the standard reduced ones with
sigma_i mapping to the identity apart from column i, which reads
(t, -t, 1) on rows i-1, i, i+1 (1-based, truncated at the edges), and
sigma_i^-1 apart from its column (1, -t^-1, t^-1), so det(rho(sigma_i)) =
-t.  Right multiplication by a generator therefore changes one column of
the running product: the new column is t c[i-2] - t c[i-1] + c[i], or
c[i-2] - t^-1 c[i-1] + t^-1 c[i], in the old columns c (0-based, those
past the edge left out).  The running product is kept by integer columns,
each a map {exponent * size + row: coefficient} that stores no zero, size
the matrix size, so multiplying a term by t^+-1 adds +-size to its key and
a letter is one integer sum and dict update per term of the three columns;
it builds no polynomial and no tuple.  The matrix of {exponent:
coefficient} entries is read off the columns once, after the last letter,
a key's exponent and row being divmod(key, size) (see ``mat_mul`` and
``reduced_burau``).
"""

from __future__ import annotations

from collections.abc import Sequence

from .braidcore import BandRepresentation, BraidWord, free_reduction, fundamental_cycles
from .errors import InternalError, InvalidParameter, NonExactDivision


# ---------------------------------------------------------------------------
# Exact integer Laurent polynomials


class LaurentPolynomial:
    """An element of Z[t, t^-1], stored as `(low, coeffs)`.

    `coeffs[k]` is the coefficient of t^(low + k), and the tuple has no zero
    at either end; zero is `()` with `low = 0`.  So equal polynomials store
    equal pairs.  Every result goes through the constructor, which trims
    both ends of the ints it is given: a product convolves the two tuples,
    whatever the operands' sizes.  No matrix holds this type and no hot
    loop runs on it: matrix entries are {exponent: coefficient} dicts, and
    `mat_det` builds one polynomial product at the end.
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

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                out[k] += x * y
        return LaurentPolynomial(out, self.low + other.low)

    def canonical(self) -> "LaurentPolynomial":
        """Unit-normalized form: lowest exponent 0, lowest coefficient > 0; `self` if it is that already."""
        if self.coeffs and self.coeffs[0] < 0:
            return LaurentPolynomial([-c for c in self.coeffs])
        return LaurentPolynomial(self.coeffs) if self.low else self

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
        parts = [f"{c}" if e == 0 else (f"{c}*t^{e}" if e != 1 else f"{c}*t")
                 for e, c in enumerate(self.coeffs, self.low) if c]
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Matrices over Z[t, t^-1]


_ZERO = LaurentPolynomial()
_ONE = LaurentPolynomial([1])


# A square matrix by integer columns: column j as {exponent * size + row: coefficient}, storing no zero.
Columns = list[dict[int, int]]


def mat_mul(columns: Columns, r: int, sign: int) -> dict[int, int]:
    """Column r of the right product of `columns` by sigma_(r+1)^sign, the generator of column r.

    Every other column of the product is that of `columns`.  Column r is
    t c[r-1] - t c[r] + c[r+1] for sigma_i and c[r-1] - t^-1 c[r] +
    t^-1 c[r+1] for sigma_i^-1, with c[-1] and c[size] left out at the
    matrix edge.  A term c t^e at row k is keyed e * size + k, so times
    t^+-1 it is keyed +-size further on: each term costs one integer sum
    and one dict update, with no polynomial and no tuple.  A term that
    cancels to 0 is dropped, so the result stores no zero either; it is a
    fresh dict, and `columns` is not mutated.
    """
    size = len(columns)
    before, at, after = (size, size, 0) if sign == 1 else (0, -size, -size)  # key shifts of c[r-1], c[r], c[r+1]
    column = {key + before: x for key, x in columns[r - 1].items()} if r else {}
    get = column.get
    for key, x in columns[r].items():
        key += at
        if y := get(key, 0) - x:
            column[key] = y
        else:
            del column[key]
    for key, x in columns[r + 1].items() if r + 1 < size else ():
        key += after
        if y := get(key, 0) + x:
            column[key] = y
        else:
            del column[key]
    return column


def mat_det(matrix: Sequence[Sequence[dict[int, int]]]) -> LaurentPolynomial:
    """Determinant over Z[t, t^-1]: Gaussian steps on unit pivots, then fraction-free Bareiss on packed integers.

    `matrix` is square, given as rows of entries {exponent: coefficient},
    {} for zero.  Each row is stored as a dict from column to its nonzero
    entries, and each entry as a copy of the input's dict with its zero
    coefficients dropped, so a stored entry is never zero and never holds
    a zero term; the input is not mutated.  (An entry kept with only zero
    terms could be taken as a pivot and packed to 0.)

    Step k = 0..n-1 on the n x n matrix M picks a pivot row among the rows
    at positions >= k with an entry in column k, swaps it to position k,
    which flips the sign, and clears column k below it.  A row's update at
    step k reads only that row and the pivot row, so it depends on the row
    of M and the pivot rows of the steps before, in order, not on where the
    other rows stand: the run is one without swaps on M with its rows put
    in pivot order, whose determinant is det M times the sign of that
    permutation, which the swaps count.  If no row has an entry in column
    k, columns 0..k are nonzero only in rows 0..k-1 after row operations
    that add multiples of earlier rows and scale rows by nonzero factors,
    so det M = 0.  The steps run in two phases.

    1. Unit phase.  While every pivot taken so far is a unit c t^j
       (c = +-1) of Z[t, t^-1], step k takes, among the rows whose column-k
       entry is a unit, one with the fewest entries, the lowest position
       on a tie.  Its pivot p = c t^j goes into the running unit
       u = sign t^low, as sign *= c and low += j, and every row i > k with
       an entry in column k is cleared by a plain Gaussian step,

           R_ij -= (R_ik p^-1) R_kj,    p^-1 = c t^-j,

       one convolution of two term dicts per entry, with no division; a
       term that cancels is deleted, and so is an entry left empty.  Once
       column k has no unit candidate the phase ends for good, at step k0:
       the later steps are Bareiss steps, whose rows carry scales that a
       Gaussian step would drop.  Eliminating by a unit of Z[t, t^-1] never
       leaves Z[t, t^-1], and the rows at positions >= k0 hold the Schur
       complement C of the unit pivots, m x m with m = n - k0, so
       det M = u det C, the swaps' sign folded into u.
    2. Packing.  Row i of C is shifted by t^-s_i, s_i its lowest exponent
       (0 for a zero row), so C' = diag(t^-s_i) C has entries in Z[t] and
       det C = t^(s_0 + ... + s_(m-1)) det C'.  Each entry of C' is packed
       as its value at t = 2^B, where

           H^2 = prod_i max(1, sum_j |C_ij|_1^2),    B = ceil(log2 H) + 2,

       in integer arithmetic, |p|_1 the sum of the absolute values of the
       coefficients of p.  For |z| = 1 an entry is at most |C_ij|_1 in
       absolute value, so by Hadamard's inequality, and as a nonzero row
       has norm at least 1, every minor of C' has |minor(z)| <= H on the
       unit circle; its coefficients, the Fourier coefficients of
       minor(e^(i theta)), are at most H < 2^(B-1) in absolute value.
       Evaluation at 2^B is a ring homomorphism, so the steps below map
       every numerator and every exact quotient to its integer image, and
       an integer minor is zero exactly when the polynomial is: its
       signed base-2^B digits are its coefficients.
    3. Bareiss (Math. Comp. 22, 1968) on the packed C', steps k = 0..m-1,
       with p_k the pivot of step k and p_-1 = 1: before step k the rows at
       positions i >= k hold R^k_i, with R^0 = C', and step k sets, for
       i > k,

           R^(k+1)_ij = (R^k_ij p_k - R^k_ik R^k_kj) / p_(k-1),    p_k = R^k_kk.

       By Sylvester's identity R^k_ij (i, j >= k) is the minor of C' on its
       rows and columns 0..k-1 with i and j; the last pivot p_(m-1) is
       det C'(2^B), whose signed base-2^B digits are the coefficients of
       det C'.  Step k takes, among the rows with an entry in column k, one
       with the fewest entries (Markowitz, Management Sci. 3, 1957), the
       lowest position on a tie.  A zero test reads a minor, or a nonzero
       pivot times a minor, so it is exact (item 2).
    4. Deferred scaling.  A row with no entry in column k only gets
       R^(k+1)_i = R^k_i p_k / p_(k-1), which keeps its support.  So a row
       stores S = R^a_i, where a - 1 is the step it was last updated at
       (a = 0 if never), together with its divisor d = p_(a-1).  The
       factors from steps a..k-1 telescope: R^k_i = S p_(k-1) / d.  When
       column k next reaches it, substituting into the step gives

           R^(k+1)_ij = (S_ij p_k - S_ik R^k_kj) / d,

       one product and one division per entry with no factor for the
       skipped steps; the row then stores R^(k+1)_i and divisor p_k.  The
       pivot row itself is brought up to R^k_k = S p_(k-1) / d before its
       entries are read, and at k = m - 1 that gives det C'(2^B).  Every
       quotient taken is the image of an entry R^(k+1)_ij or R^k_kj, a
       minor of C', so it is an integer: a nonzero remainder raises
       NonExactDivision, which marks a fault here, not a property of M.

    Only the rows with an entry in column k are touched at step k, and each
    update costs the sizes of the two rows, not (m - k)^2.
    """
    n = len(matrix)
    # position -> nonzero entries by column, as {exponent: coefficient}
    grid = [{j: terms for j, entry in enumerate(row) if (terms := {e: c for e, c in entry.items() if c})}
            for row in matrix]
    sign, low, k = 1, 0, 0
    while k < n:
        candidates = [r for r in range(k, n) if tuple(grid[r].get(k, {}).values()) in ((1,), (-1,))]  # +-t^j
        if not candidates:
            break
        r = min(candidates, key=lambda c: len(grid[c]))  # the first of the fewest: lowest position
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        pivot_entries = grid[k].copy()
        ((j0, c0),) = pivot_entries.pop(k).items()
        sign *= c0
        low += j0
        for row in grid[k + 1:]:
            factor = row.pop(k, None)
            if factor is None:
                continue
            factor = {e - j0: -c0 * c for e, c in factor.items()}  # -R_ik p^-1, as c0 = +-1 is its own inverse
            for j, entry in pivot_entries.items():
                terms = row.setdefault(j, {})
                for e1, c1 in factor.items():
                    for e2, c2 in entry.items():
                        terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
                terms = {e: c for e, c in terms.items() if c}
                if terms:
                    row[j] = terms
                else:
                    del row[j]
        k += 1
    complement = grid[k:]
    shifts = [min((min(entry) for entry in row.values()), default=0) for row in complement]
    h_squared = 1
    for row in complement:
        h_squared *= sum(sum(map(abs, entry.values())) ** 2 for entry in row.values()) or 1
    # ceil(log2 H) = ceil(ceil(log2 H^2) / 2), and ceil(log2 x) = (x - 1).bit_length() for x >= 1
    bits = ((h_squared - 1).bit_length() + 1) // 2 + 2
    # position in C' -> (packed entries by column of C', divisor of the row's next update)
    rows = [
        ({j - k: _pack(entry, bits, shift) for j, entry in row.items()}, 1) for row, shift in zip(complement, shifts)
    ]
    previous, m = 1, len(rows)
    for k in range(m):
        candidates = [r for r in range(k, m) if k in rows[r][0]]
        if not candidates:
            return _ZERO
        r = min(candidates, key=lambda c: len(rows[c][0]))  # the first of the fewest: lowest position
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        pivot_row, divisor = rows[k]
        if divisor != previous:
            pivot_row = {j: _exact_quotient(entry * previous, divisor) for j, entry in pivot_row.items()}
        pivot = pivot_row[k]
        for i in range(k + 1, m):
            row, divisor = rows[i]
            factor = row.get(k)
            if factor is None:
                continue
            updated = {j: entry * pivot for j, entry in row.items() if j != k}
            for j, entry in pivot_row.items():
                if j != k:
                    updated[j] = updated.get(j, 0) - factor * entry
            updated = {j: entry for j, entry in updated.items() if entry}
            if divisor != 1:
                updated = {j: _exact_quotient(entry, divisor) for j, entry in updated.items()}
            rows[i] = (updated, pivot)
        previous = pivot
    return LaurentPolynomial((sign,), low) * _unpack(previous, bits, sum(shifts))


def _pack(terms: dict[int, int], bits: int, shift: int) -> int:
    """(t^-shift p)(2^bits), for p given as {exponent: coefficient} with no exponent below `shift`."""
    return sum(c << bits * (e - shift) for e, c in terms.items())


def _unpack(value: int, bits: int, low: int) -> LaurentPolynomial:
    """t^low q, for the q in Z[t] with q(2^bits) = value whose coefficients are below 2^(bits-1) in absolute value.

    The coefficients are the signed base-2^bits digits of `value`, lowest
    first, each in [-2^(bits-1), 2^(bits-1)); q is unique under the bound.
    Needs bits >= 2: with bits = 1 the digits are -1 and 0, and the digits
    of a positive value never end, so a smaller `bits` raises InternalError.
    """
    if bits < 2:
        raise InternalError(f"unpacking needs at least 2 bits per digit, got {bits}")
    coeffs, mask, half = [], (1 << bits) - 1, 1 << (bits - 1)
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        coeffs.append(c)
        value = (value - c) >> bits
    return LaurentPolynomial(coeffs, low)


def _exact_quotient(numerator: int, divisor: int) -> int:
    """numerator / divisor, which Bareiss's identities make exact; raises NonExactDivision otherwise."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise NonExactDivision("remainder left by a packed Bareiss quotient")
    return quotient


# ---------------------------------------------------------------------------
# Reduced Burau and the braid route to Alexander


def reduced_burau(word: BraidWord) -> list[list[dict[int, int]]]:
    """Image of the word under the reduced Burau representation, as rows of {exponent: coefficient} entries.

    Letters multiply left to right: rho(w1 w2) = rho(w1) rho(w2).  The
    running product is kept by integer columns (see `mat_mul`), and
    sigma_i^+-1 replaces column i-1 by one `mat_mul` call.  The rows are
    read off the columns once, at the end, a key's row and exponent by
    `divmod`: each entry is a fresh dict that stores no zero, {} for zero,
    shared with no other entry, so the caller may change it.
    """
    if word.strands < 2:
        raise InvalidParameter("reduced Burau needs at least 2 strands")
    size = word.strands - 1
    columns = [{d: 1} for d in range(size)]
    for i, sign in word.letters:
        columns[i - 1] = mat_mul(columns, i - 1, sign)
    matrix: list[list[dict[int, int]]] = [[{} for _ in range(size)] for _ in range(size)]
    for j, column in enumerate(columns):
        for key, c in column.items():
            e, i = divmod(key, size)
            matrix[i][j][e] = c
    return matrix


def alexander_from_braid(word: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure, canonical up to units.

    The Burau product is taken on the freely reduced word
    (`braidcore.free_reduction`): rho(s_i) rho(s_i^-1) = I exactly, so the
    matrix is the same, and `reduced_burau` makes one `mat_mul` per letter
    left.  Consecutive bands of a fiber model cancel most of each other's
    conjugating letters: beta(q_rep(6)) has 1,250 letters and 210 left.
    `verify_fiber` and the `invariants` verb pass `braidcore.reduced_beta(rep)`,
    which builds those 210 without expanding the bands; the reduction here
    then cancels nothing, and the word itself goes on, with no new
    `BraidWord` built and checked.  rho - I subtracts 1 from the constant
    term of each diagonal entry, in place; a term that cancels is left as
    0, which `mat_det` drops.
    """
    n = word.strands
    if n == 1:
        return _ONE
    letters = free_reduction(word.letters)
    diff = reduced_burau(word if len(letters) == len(word.letters) else BraidWord(n, letters))
    for i, row in enumerate(diff):
        row[i][0] = row[i].get(0, 0) - 1
    return mat_det(diff).exact_div(LaurentPolynomial([1] * n)).canonical()


# ---------------------------------------------------------------------------
# Seifert matrices of braided surfaces


def _basis_cycles(rep: BandRepresentation):
    """One cycle per co-tree band: ordered (band_pos, direction) traversals.

    direction +1 means the traversal runs from disk i to disk j of the band.
    The forest is the handle graph's `fundamental_cycles` forest, bands
    taken by height: the one `graphcalc.cycle_words` reduces its words on.
    """
    return fundamental_cycles([(band.i, band.j) for band in rep.bands])[1]


def _band_crossings(cycles):
    """Per crossed band: its cycles in cycle order, as (cycle, direction) by slot."""
    crossings: dict[int, list[tuple[int, int]]] = {}
    for index, traversals in enumerate(cycles):
        for pos, direction in traversals:
            crossings.setdefault(pos, []).append((index, direction))
    return crossings


def seifert_matrix(rep: BandRepresentation) -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of S(rep) on the fundamental cycles of its handle graph, as integer rows.

    Entry (a, b) is the corridor term plus the band term of the module
    docstring.  Corridor terms are summed row by row, over a's corridors
    and the traversals of every cycle through a band that spans the
    corridor's disk; band terms band by band, over pairs of slots.
    """
    cycles = _basis_cycles(rep)
    if not cycles:
        return ()
    bands = rep.bands
    crossings = _band_crossings(cycles)

    # spanning[s]: (band, slot), cycle, direction and c - 1 - 2p of each traversal whose band
    # crosses the plane of disk s pushed towards +x, i <= s < j
    spanning: dict[int, list[tuple[tuple[int, int], int, int, int]]] = {}
    for pos, slots in crossings.items():
        band = bands[pos]
        for slot, (index, direction) in enumerate(slots):
            point = ((pos, slot), index, direction, len(slots) - 1 - 2 * slot)
            for disk in range(band.i, band.j):
                spanning.setdefault(disk, []).append(point)
    slot_of = {(index, pos): slot for pos, slots in crossings.items() for slot, (index, _) in enumerate(slots)}

    size = len(cycles)
    rows = [[0] * size for _ in range(size)]
    for a, traversals in enumerate(cycles):
        row = rows[a]
        # corridor terms: a's corridor on disk s joins the end of one traversal to the start of the next
        for (pos_in, dir_in), (pos_out, _) in zip(traversals, traversals[1:] + traversals[:1]):
            disk = bands[pos_in].j if dir_in == 1 else bands[pos_in].i
            dz = 1 if pos_out > pos_in else -1
            low, high = sorted(((pos_in, slot_of[a, pos_in]), (pos_out, slot_of[a, pos_out])))
            for point, b, direction, q in spanning.get(disk, ()):
                # a tie is a's own band leaving its disk i: the point sits above the end iff q >= 0
                if (low < point < high) or (point == low and q >= 0) or (point == high and q < 0):
                    row[b] += dz * direction
    # band terms: the strips of one band cross once in the half where the pushoff passes over
    for pos, slots in crossings.items():
        sign = bands[pos].sign
        count = len(slots)
        for p_a, (a, d_a) in enumerate(slots):
            row = rows[a]
            for p_b, (b, d_b) in enumerate(slots):
                if p_a == p_b:
                    row[a] += (1 - sign) // 2 - (count - 1 - 2 * p_a < 0)
                elif (p_a > p_b) == (sign == 1):
                    row[b] -= sign * d_a * d_b
    return tuple(tuple(row) for row in rows)


def alexander_from_seifert(v: tuple[tuple[int, ...], ...]) -> LaurentPolynomial:
    """det(V - t V^T) of the integer rows of V, canonical up to units; the 0x0 matrix gives 1.

    Entry (i, j) is {0: v_ij, 1: -v_ji}; `mat_det` drops its zero coefficients.
    """
    grid = [[{0: x, 1: -y} for x, y in zip(row, column)] for row, column in zip(v, zip(*v))]
    return mat_det(grid).canonical()
