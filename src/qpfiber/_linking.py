"""Exact linking numbers of disjoint closed polygonal loops.

Loops are lists of 3D points with integer coordinates.  The linking number
is computed from a generic projection: signed crossings where the first loop
passes over the second are summed.  If a candidate projection direction is
degenerate for the pair (a segment parallel to it, overlapping collinear
images, or a crossing at a segment endpoint), the next one is tried.  A
projected crossing at equal depth means the curves genuinely intersect in
3-space and is reported as an error.  Every test is homogeneous in the
coordinates (zero checks, signs, parameter bounds, depth comparisons), so
scaling both loops by one positive integer picks the same direction and gives
the same answer: a caller with rational geometry clears denominators once.

`pl_seifert_matrix` is the piecewise-linear model of a braided surface that
`invariants.seifert_matrix` reads its integer terms off: basis cycles laid
out as explicit loops, entries as linking numbers of a pushed-off loop with
the other loops.  It is slow and shares no arithmetic with the integer
form, so selftest and the tests keep it as the reference oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

from .braidcore import BandRepresentation
from .errors import InternalError
from .invariants import _band_crossings, _basis_cycles

Point = tuple[int, int, int]

# Deterministic supply of scruffy projection directions.  The first one that
# is generic for the given pair of loops wins.
_DIRECTIONS = [
    (3, 1009, 17),
    (7, 1999, 29),
    (11, 4001, 53),
    (23, 7919, 101),
    (41, 15131, 211),
    (83, 31337, 431),
    (173, 65537, 887),
    (347, 131071, 1777),
    (691, 262139, 3547),
]


class _DegenerateProjection(Exception):
    pass


def _segments(loop):
    segs = []
    m = len(loop)
    for idx in range(m):
        p, q = loop[idx], loop[(idx + 1) % m]
        if p != q:
            segs.append((p, q))
    return segs


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _crossings_over(segs_a, segs_b, v) -> int:
    """Signed count of projected crossings where loop A passes over loop B.

    "Over" means larger coordinate along `v` (the viewer looks along -v); the
    projection plane carries the orientation making (u1, u2, v) positive, and
    a crossing counts +1 when (dir_over, dir_under) is a positive frame.
    """
    seed = (1, 0, 0) if (v[1], v[2]) != (0, 0) else (0, 1, 0)
    u1 = _cross3(v, seed)
    u2 = _cross3(v, u1)

    def proj(p):
        return (_dot(p, u1), _dot(p, u2))

    total = 0
    for p1, p2 in segs_a:
        a1, a2 = proj(p1), proj(p2)
        da = (a2[0] - a1[0], a2[1] - a1[1])
        if da == (0, 0):
            raise _DegenerateProjection
        dav = _dot(_sub(p2, p1), v)
        for q1, q2 in segs_b:
            b1, b2 = proj(q1), proj(q2)
            db = (b2[0] - b1[0], b2[1] - b1[1])
            if db == (0, 0):
                raise _DegenerateProjection
            denom = da[0] * db[1] - da[1] * db[0]
            r = (b1[0] - a1[0], b1[1] - a1[1])
            if denom == 0:
                if r[0] * da[1] - r[1] * da[0] == 0:
                    # collinear images; overlap would hide crossings
                    raise _DegenerateProjection
                continue
            crossing_sign = 1 if denom > 0 else -1
            s_num = r[0] * db[1] - r[1] * db[0]
            t_num = r[0] * da[1] - r[1] * da[0]
            if denom < 0:
                denom, s_num, t_num = -denom, -s_num, -t_num
            if not (0 <= s_num <= denom and 0 <= t_num <= denom):
                continue
            if s_num in (0, denom) or t_num in (0, denom):
                raise _DegenerateProjection
            # Depths along v at the intersection point, times denom (> 0).
            depth_a = _dot(p1, v) * denom + s_num * dav
            depth_b = _dot(q1, v) * denom + t_num * _dot(_sub(q2, q1), v)
            if depth_a == depth_b:
                raise InternalError("loops intersect in 3-space; bad geometry")
            if depth_a > depth_b:
                total += crossing_sign
    return total


def linking_number(loop_a: Sequence[Point], loop_b: Sequence[Point]) -> int:
    """lk(A, B) for disjoint closed PL loops with integer points, exact."""
    segs_a, segs_b = _segments(loop_a), _segments(loop_b)
    for direction in _DIRECTIONS:
        try:
            return _crossings_over(segs_a, segs_b, direction)
        except _DegenerateProjection:
            continue
    raise InternalError("no generic projection direction found for linking number")


# The PL model lies on an integer lattice of spacing `scale` (see
# `pl_seifert_matrix`): disk s in the plane x = s * scale, band pos between
# the heights pos * scale and (pos + 1) * scale, the foot of every band at
# y = -scale, the corridor of cycle k at y = (k + 2) * scale.  The pushoff
# distance scale / 256 and the spacing scale / 4096 of parallel strips
# through a band stay tiny against that spacing.  Handedness of a positive
# half-twist (which parallel strip passes in front, and which way the
# surface normal rotates along the band).  Pinned by the positive Hopf band:
# Seifert matrix [-1].
_TWIST = -1


def _cycle_loops(rep, crossings, traversals, cycle_index, scale):
    """Core loop and its positive pushoff, as explicit PL point lists."""
    delta, eta = scale // 256, scale // 4096
    corridor_y, foot_y = (cycle_index + 2) * scale, -scale
    core = []
    push = []
    for pos, direction in traversals:
        band = rep.bands[pos]
        slots = [index for index, _ in crossings[pos]]
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


def pl_seifert_matrix(rep: BandRepresentation) -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of S(rep) from the PL model: lk(a+, b) for every pair.

    `scale` is one lattice spacing for the whole surface: 4096 times the lcm
    of count + 1 over the crossed bands, where count is the number of basis
    cycles crossing a band, so every point of every loop is an integer.
    """
    cycles = _basis_cycles(rep)
    if not cycles:
        return ()
    crossings = _band_crossings(cycles)
    scale = 4096 * math.lcm(*(len(slots) + 1 for slots in crossings.values()))
    loops = [_cycle_loops(rep, crossings, traversals, index, scale) for index, traversals in enumerate(cycles)]
    size = len(cycles)
    return tuple(
        tuple(linking_number(loops[a][1], loops[b][0]) for b in range(size))
        for a in range(size)
    )
