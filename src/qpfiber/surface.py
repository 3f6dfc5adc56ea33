"""Braided Seifert surfaces as handle complexes.

S(b) has one 0-handle (disk) per strand and one half-twisted 1-handle per
band, stacked vertically in band order.  Everything topological about S(b)
is read off this data: Euler characteristic (disks minus bands), components
(connectivity of the handle graph), and boundary circles per component
(cycles of the strand permutation of the braid word, attributed to the
component owning their strands).  That permutation is read off the bands,
each the transposition of its two strands, without expanding the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable

from .braidcore import BandRepresentation, UnionFind, band_permutation, cycles
from .errors import InternalError, InvalidParameter


@dataclass(frozen=True)
class BraidedSurface:
    """The braided surface S(rep); bands are 1-handles at heights 1..k."""

    rep: BandRepresentation

    @property
    def strands(self) -> int:
        return self.rep.strands

    @property
    def bands(self):
        return self.rep.bands

    def band_count(self) -> int:
        return len(self.rep.bands)

    @cached_property
    def incidence(self) -> tuple[MappingProxyType, ...]:
        """Per disk, the bands that meet it, in height order, each to its side.

        `incidence[s - 1]` maps band t to "i" when s is the band's disk i,
        and to "j" when s is its disk j.  The one statement of which side of a band
        meets a disk; built once per surface, in time linear in its size.
        """
        rows: list[dict[int, str]] = [{} for _ in range(self.strands)]
        for t, band in enumerate(self.bands, start=1):
            rows[band.i - 1][t] = "i"
            rows[band.j - 1][t] = "j"
        return tuple(MappingProxyType(row) for row in rows)

    def to_json(self) -> dict:
        return self.rep.to_json()


@dataclass(frozen=True)
class SurfaceSummary:
    """Homeomorphism-type certificate: per-component (chi, boundary circles)."""

    total_chi: int
    components: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(sorted(tuple(c) for c in self.components)))
        if self.total_chi != sum(chi for chi, _ in self.components):
            raise InvalidParameter("total chi does not match component sum")
        for chi, boundary in self.components:
            if chi > 1:
                raise InvalidParameter(f"component chi {chi} exceeds 1")
            if boundary < 1:
                raise InvalidParameter("component with empty boundary")
            genus2 = 2 - chi - boundary
            if genus2 < 0 or genus2 % 2:
                raise InvalidParameter(f"(chi, boundary) = ({chi}, {boundary}) is not an orientable surface")

    def to_json(self) -> dict:
        return {"chi": self.total_chi, "components": [list(c) for c in self.components]}

    @staticmethod
    def of_complex(nodes, edges, circles) -> "SurfaceSummary":
        """The summary of a ribbon complex: nodes, edges joining them, and its boundary circles.

        The one per-component count of the package.  `nodes` and `edges` are
        sequences, each edge a pair of nodes; each entry of `circles` lists the
        nodes one boundary circle visits.  Per component, chi is nodes minus
        edges, and each circle counts once, in the component its nodes lie in.
        A component with no edge is a disk, with one circle.  A circle whose
        nodes lie in two components is a bug in the caller: InternalError.
        """
        sets = UnionFind(nodes)
        for tail, head in edges:
            sets.union(tail, head)
        root = {node: sets.find(node) for node in nodes}
        counts: dict = {}  # root -> [nodes, edges, circles]
        for r in root.values():
            counts.setdefault(r, [0, 0, 0])[0] += 1
        for tail, _head in edges:
            counts[root[tail]][1] += 1
        for circle in circles:
            roots = set(map(root.__getitem__, circle))
            if len(roots) != 1:
                raise InternalError(f"a boundary circle visits {len(roots)} components")
            counts[roots.pop()][2] += 1
        components = tuple((v - e, c if e else 1) for v, e, c in counts.values())
        return SurfaceSummary(sum(chi for chi, _ in components), components)


def euler_characteristic(surface: BraidedSurface) -> int:
    return surface.strands - surface.band_count()


def summary(surface: BraidedSurface) -> SurfaceSummary:
    """Component-wise (chi, boundary circles) of S(b)."""
    return SurfaceSummary.of_complex(
        range(1, surface.strands + 1),
        [(band.i, band.j) for band in surface.bands],
        cycles(band_permutation(surface.rep)),
    )


def handle_spine(surface: BraidedSurface, selected: Iterable[int]):
    """The spine graph of the sub-handle-complex on the selected 1-handles.

    Every 0-handle carries one comb with a tooth per selected incident band
    (an isolated point if none touches it); every selected band carries one
    arc.  Heights order the teeth.
    """
    from . import graphcalc

    selected = list(selected)
    for t in selected:
        if type(t) is not int:  # not isinstance: True is an int
            raise InvalidParameter(f"selected 1-handle {t!r} is not an integer")
    chosen = set(selected)
    k = surface.band_count()
    for t in sorted(chosen):
        if not 1 <= t <= k:
            raise InvalidParameter(f"selected 1-handle {t} out of range 1..{k}")
    disks = []
    for row in surface.incidence:
        teeth = [graphcalc.ArcEnd(t, 0) for t in row if t in chosen]
        if teeth:
            disks.append((graphcalc.Comb(tuple(teeth)),))
        else:
            disks.append((graphcalc.IsolatedPoint(),))
    return graphcalc.CombedGraph(surface, tuple(disks))
