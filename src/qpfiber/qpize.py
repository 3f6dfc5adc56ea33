"""Quasipositive re-presentation of full subsurfaces of the fiber model.

Input: a full combed graph on S(q_n).  After Whitehead reduction, a
middle-disk comb of two or more teeth may still meet one attaching arc
twice, around a nested dead end (a one-tooth middle-disk comb).  A dead
end, with its arc and the disk-1 tooth it hangs from, is a tree branch of
the graph, so dropping it is an isotopy of the regular neighborhood; then
the comb holds a site.  So on such a graph dead ends are dropped and the
reduction goes on, until neither a site nor a dead end is left; a graph
with no such comb takes no extra step.  Now every middle-disk comb meets
each of its disk's two attaching arcs at most once, so the graph decomposes
over the coarse handles into crossings (two-tooth combs carried from
strand 1 out and back), dead ends, and stray isolated points.  The
read-out skips dead ends and their disk-1 teeth, and edits nothing.  It
reads off a braided surface directly, from the reduced graph's arc-end
numbering, in which disk 1's arc ends come first, in boundary order:

* every live tooth of a disk-1 comb becomes a 0-handle of the output, in
  the order of its arc end on the disk's boundary, and so does every
  isolated point (disk-1 or stray) and every disk-1 comb with no live
  tooth; 0-handles are indexed top to bottom;
* consecutive live teeth of one comb stay joined by a positive band
  between their 0-handles (the comb spine, re-fattened);
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
    CombedGraph,
    Site,
    _reduced,
    _require_valid,
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
    coarse = CoarseDecomposition(n)
    nu = coarse.nu
    handles = [coarse.coarse_one_handle(s) for s in range(1, nu)]

    def misfits(ends):  # (middle disk, the bands of its teeth) of each comb neither a dead end nor a crossing
        return [
            (disk, bands)
            for first_band, disk, second_band in handles
            for teeth in ends.comps[disk - 1]
            if len(bands := [ends.band[x] for x in teeth]) > 1 and bands != [first_band, second_band]
        ]

    if misfits(reduced._ends):
        # a comb around a nested dead end: drop the dead ends and reduce on
        reduced, more = _reduced(reduced, range(2, nu + 1))
        steps += more
        if found := misfits(reduced._ends):
            disk, bands = found[0]
            raise InternalError(f"disk {disk} comb into 1-handles {bands} after reduction")
    ends = reduced._ends
    comb, comps, mate = ends.comb, ends.comps, ends.mate

    # middle disks now carry only isolated points, two-tooth crossings and
    # one-tooth dead ends; the disk-1 tooth a dead end hangs from is dead too
    dead = {mate[teeth[0]] for _first, disk, _second in handles for teeth in comps[disk - 1] if len(teeth) == 1}

    # 0-handles: live disk-1 teeth in boundary order (disk 1's block of
    # arc-end numbers comes first), then disk-1 isolated points and combs
    # with no live tooth, then stray points from the middle disks; output
    # indices run top to bottom.  So the listing order of components means
    # nothing.
    teeth = [x for x in range(ends.disk.count(1)) if x not in dead]
    combs: dict[int, list] = {}  # disk-1 comb -> its live teeth, bottom to top
    for x in teeth:
        combs.setdefault(comb[x], []).append(x)
    points = len(comps[0]) - len(combs)  # isolated points, and combs with no live tooth
    stray = sum(not comp for disk in range(2, nu + 1) for comp in comps[disk - 1])
    total = len(teeth) + points + stray
    if total == 0:
        raise InvalidGraph("graph has no material to present")

    strand_of = {x: len(teeth) + points - rank for rank, x in enumerate(teeth)}

    # necks: consecutive live teeth of each disk-1 comb.  Around a fattened
    # tooth the attachments run (crossing, neck below, neck above) in the
    # disk orientation, which forces neck heights to DECREASE up the comb
    # and all crossings to sit above all necks; the fiber Alexander
    # agreement pins this down (top-down emission is the faithful one).
    necks = [
        EmbeddedBand(strand_of[upper], strand_of[lower], 1)
        for live in combs.values()  # combs in the order of their bottom teeth
        for lower, upper in reversed(list(zip(live, live[1:])))
    ]

    # crossings: per coarse 1-handle, per slot of its first fine band
    strips = []
    for first_band, disk, _second_band in handles:
        for near1 in ends.keys.get((first_band, "i"), ()):  # disk-1 ends, by slot
            if near1 in dead:
                continue
            crossing = comps[disk - 1][comb[mate[near1]]]  # near1's far end, then the end into the second band
            a, b = strand_of[near1], strand_of[mate[crossing[1]]]
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
