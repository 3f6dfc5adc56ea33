"""Quasipositive re-presentation of full subsurfaces of the fiber model.

Input: a full combed graph on S(q_n).  After Whitehead reduction, every
middle-disk comb meets each attaching arc at most once, so the graph
decomposes over the coarse handles into crossings (two-tooth combs carried
from strand 1 out and back), dead ends (one-tooth combs, retracted into the
material on strand 1 they hang from), and stray isolated points.  The local
move then reads off a braided surface directly:

* every tooth of a disk-1 comb becomes a 0-handle of the output, in the
  order of its arc end on the disk's boundary, and so does every isolated
  point (disk-1 or stray); 0-handles are indexed top to bottom;
* consecutive teeth of one comb stay joined by a positive band between
  their 0-handles (the comb spine, re-fattened);
* every crossing becomes one positive band joining the 0-handles carrying
  its two disk-1 ends; crossing bands are ordered by coarse 1-handle, then
  slot.

The output summary is recomputed independently from the output surface and
compared against the input neighborhood summary; disagreement is an
internal error, never a tolerated approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braidcore import BandRepresentation, EmbeddedBand
from .constructions import CoarseDecomposition, q_rep
from .errors import (
    HasFreeEnds,
    InternalError,
    InvalidGraph,
    NotOnQ,
    SummaryMismatch,
)
from .graphcalc import (
    ArcEnd,
    Comb,
    CombedGraph,
    IsolatedPoint,
    Site,
    _require_valid,
    edit_band,
    neighborhood_summary,
    reduce_with_trace,
)
from .surface import BraidedSurface, SurfaceSummary, handle_spine, summary


@dataclass(frozen=True)
class QuasipositizationResult:
    output: BandRepresentation
    input_summary: SurfaceSummary
    output_summary: SurfaceSummary
    steps: tuple[Site, ...]

    def to_json(self) -> dict:
        return {
            "output": self.output.to_json(),
            "summary": self.output_summary.to_json(),
            "trace": [site.to_json() for site in self.steps],
        }


def _prune_dead_ends(graph: CombedGraph) -> CombedGraph:
    """Retract one-tooth combs on disks >= 2 into the disk-1 side.

    Each such comb, with its single arc and the disk-1 tooth it hangs from,
    is a tree branch of the graph; removing it is an isotopy of the regular
    neighborhood.  Disk-1 combs that lose their last tooth become isolated
    points.
    """
    current = graph
    while True:
        target = None
        for disk in range(2, len(current.disks) + 1):
            for ci, comp in enumerate(current.disks[disk - 1]):
                if isinstance(comp, Comb) and len(comp.teeth) == 1:
                    target = (disk, ci, comp.teeth[0])
                    break
            if target:
                break
        if target is None:
            return current
        disk_r, ci_r, tooth = target
        near_disk, near_ci, near_ti = current.mate[(disk_r, ci_r, 0)]
        near = current.disks[near_disk - 1][near_ci].teeth
        rest = near[:near_ti] + near[near_ti + 1 :]
        current = edit_band(current, tooth.band, {
            (disk_r, ci_r): (),
            (near_disk, near_ci): (Comb(rest) if rest else IsolatedPoint(),),
        })


def quasipositize(n: int, graph: CombedGraph) -> QuasipositizationResult:
    """Re-present a full subsurface of S(q_n) by quasipositive bands."""
    expected = q_rep(n)
    if graph.host.rep != expected:
        raise NotOnQ(f"host surface is not S(q_{n})")
    _require_valid(graph)
    if graph.has_free_ends():
        raise HasFreeEnds("quasipositize assumes the graph avoids the host boundary")
    if not any(comps for comps in graph.disks):
        raise InvalidGraph("empty graph presents no surface")
    input_summary = neighborhood_summary(graph)

    reduced, steps = reduce_with_trace(graph)
    pruned = _prune_dead_ends(reduced)

    coarse = CoarseDecomposition(n)
    nu = coarse.nu

    # middle disks now carry only isolated points and two-tooth crossings
    for disk in range(2, nu + 1):
        for comp in pruned.disks[disk - 1]:
            if isinstance(comp, Comb) and len(comp.teeth) != 2:
                raise InternalError(f"disk {disk} comb with {len(comp.teeth)} teeth after reduction")

    # 0-handles: disk-1 teeth in boundary order, then disk-1 isolated points,
    # bottom to top, then stray points from the middle disks; output indices
    # run top to bottom.  So the listing order of components means nothing.
    slots_bottom_up: list[tuple] = [  # ("tooth", ci, ti) | ("point", disk, ci)
        ("tooth", ci, ti)
        for band, hostband in enumerate(pruned.host.bands, start=1)
        if hostband.i == 1
        for _disk, ci, ti in pruned.arc_ends.get((band, "i"), ())
    ]
    slots_bottom_up += [
        ("point", 1, ci) for ci, comp in enumerate(pruned.disks[0]) if isinstance(comp, IsolatedPoint)
    ]
    stray = [
        ("point", disk, ci)
        for disk in range(2, nu + 1)
        for ci, comp in enumerate(pruned.disks[disk - 1])
        if isinstance(comp, IsolatedPoint)
    ]
    total = len(slots_bottom_up) + len(stray)
    if total == 0:
        raise InvalidGraph("graph has no material to present")

    strand_of = {key: len(slots_bottom_up) - rank for rank, key in enumerate(slots_bottom_up)}

    # necks: consecutive teeth of each disk-1 comb.  Around a fattened tooth
    # the attachments run (crossing, neck below, neck above) in the disk
    # orientation, which forces neck heights to DECREASE up the comb and all
    # crossings to sit above all necks; the fiber Alexander agreement pins
    # this down (top-down emission is the faithful one).
    necks = []
    for kind, ci, first in slots_bottom_up:  # combs in the order of their bottom teeth
        if kind == "tooth" and first == 0:
            for ti in range(len(pruned.disks[0][ci].teeth) - 2, -1, -1):
                a = strand_of[("tooth", ci, ti)]
                b = strand_of[("tooth", ci, ti + 1)]
                necks.append(EmbeddedBand(min(a, b), max(a, b), 1))

    # crossings: per coarse 1-handle, per slot of its first fine band
    mate = pruned.mate
    strips = []
    for s in range(1, nu):
        first_band, middle_disk, second_band = coarse.coarse_one_handle(s)
        for near1 in pruned.arc_ends.get((first_band, "i"), ()):  # disk-1 ends, by slot
            _disk, far_ci, _ti = mate[near1]
            # partner tooth on the middle-disk comb, and the disk-1 end of its arc
            teeth = pruned.disks[middle_disk - 1][far_ci].teeth
            partner = next(
                ti for ti, tooth in enumerate(teeth) if isinstance(tooth, ArcEnd) and tooth.band == second_band
            )
            near2 = mate[(middle_disk, far_ci, partner)]
            a = strand_of[("tooth", near1[1], near1[2])]
            b = strand_of[("tooth", near2[1], near2[2])]
            if a == b:
                raise InternalError("crossing returned to a single 0-handle")
            strips.append(EmbeddedBand(min(a, b), max(a, b), 1))

    output = BandRepresentation(total, tuple(necks + strips))
    output_summary = summary(BraidedSurface(output))
    if output_summary != input_summary:
        raise SummaryMismatch(
            f"input {input_summary.to_json()} != output {output_summary.to_json()}"
        )
    return QuasipositizationResult(output, input_summary, output_summary, tuple(steps))


def quasipositize_handle_subsurface(n: int, selected) -> QuasipositizationResult:
    """Quasipositize the spine of a set of fine 1-handles of S(q_n)."""
    spine = handle_spine(BraidedSurface(q_rep(n)), selected)
    return quasipositize(n, spine)
