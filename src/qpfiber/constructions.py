"""The named fiber-surface models and the two embedding pipelines.

``nabla(n)`` is the positive word (s_1 ... s_{n-1})^n as a band
representation; its closure is the (n, n) torus link and its surface is the
fiber.  ``q_rep(n)`` is the quasipositive model of the same fiber on
nu = (n-1)^2 + 1 strands whose bands all start on strand 1; its coarse
handle structure (one 0-handle, nu-1 band/disk/band 1-handles) drives the
quasipositization algorithm.

``pad_into_nabla`` embeds the surface of any positive word into the fiber
by marking handles of nabla; ``expand_bands`` embeds the surface of any
quasipositive band representation into the surface of a positive word by
running each band through a chain of elementary handles.  Both return the
marked subsurface as a combed spine graph so that fullness and the
neighborhood summary can be checked downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphcalc
from .braidcore import (
    BandRepresentation,
    BraidWord,
    EmbeddedBand,
    band_permutation,
    cycles,
    is_quasipositive,
    reduced_beta,
)
from .errors import (
    FiberVerificationFailed,
    InternalError,
    InvalidParameter,
    NotPositive,
    NotQuasipositive,
)
from .graphcalc import CombedGraph
from .invariants import alexander_from_braid
from .surface import BraidedSurface, euler_characteristic, handle_spine

MAX_N = 11
"""Largest n the CLI verbs taking ``--n`` accept; above it they exit 2.

On a 2-core x86-64 machine shared with other jobs (Python 3.11, medians
of five fresh-process runs of ``verify_fiber(n)``, over six such runs)
n = 9..12 took 0.009-0.017, 0.014-0.025, 0.021-0.038 and 0.032-0.055 s
(0.015, 0.016, 0.024 and 0.043 s at the median), against 0.012-0.019,
0.019-0.028, 0.026-0.047 and 0.037-0.064 s (0.014, 0.023, 0.034 and
0.055 s) when each Burau letter multiplied a slab of columns keyed by
(row, exponent) tuples; ``reduced_beta`` builds only the 1,820 letters of
beta(q_rep(11)) that the reduction keeps of its 20,000.  At n = 11 the
determinants lead: 8.2-9.2 ms against 7.5-7.8 ms for the Burau products
and 2.4-2.6 ms for building both models and their words (medians of 15
in one process); the unit phase of ``mat_det`` leaves 11 of the 100
steps of q_rep(11) to Bareiss.  Raising the limit would also raise
``cli.MAX_STRANDS`` and ``cli.MAX_LETTERS``, taken from ``q_rep(MAX_N)``.
"""


def _require_n(what: str, n) -> None:
    """Refuse an n that is not an integer >= 2."""
    if type(n) is not int:  # not isinstance: True is an int
        raise InvalidParameter(f"{what} needs an integer n, got {n!r}")
    if n < 2:
        raise InvalidParameter(f"{what} needs n >= 2, got {n}")


def nabla(n: int) -> BandRepresentation:
    """The positive word (s_1 s_2 ... s_{n-1})^n, as bands (d, d+1, +1).

    Position s = (n-1)c + d with 1 <= d <= n-1 carries the band (d, d+1).
    """
    _require_n("nabla", n)
    bands = []
    for s in range(1, n * (n - 1) + 1):
        d = (s - 1) % (n - 1) + 1
        bands.append(EmbeddedBand(d, d + 1, 1))
    return BandRepresentation(n, tuple(bands))


def nu_of(n: int) -> int:
    return (n - 1) ** 2 + 1


def q_rep(n: int) -> BandRepresentation:
    """The quasipositive fiber model on nu = (n-1)^2 + 1 strands.

    First half: band s is (1, nu-s+1).  Second half: s - nu = (n-1)c + d
    with 0 <= c, d <= n-2 gives the band (1, nu - c - (n-1)d).
    """
    _require_n("q_rep", n)
    nu = nu_of(n)
    bands = []
    for s in range(1, nu):
        bands.append(EmbeddedBand(1, nu - s + 1, 1))
    for s in range(nu, 2 * (nu - 1) + 1):
        c = (s - nu) // (n - 1)
        d = (s - nu) % (n - 1)
        bands.append(EmbeddedBand(1, nu - c - (n - 1) * d, 1))
    return BandRepresentation(nu, tuple(bands))


@dataclass(frozen=True)
class CoarseDecomposition:
    """The coarse handle structure of S(q_n): one 0-handle, nu-1 1-handles.

    Coarse 1-handle s (1 <= s <= nu-1) is the chain
    fine band s -> disk nu-s+1 -> fine band nu+s', where s-1 = c + (n-1)d
    with 0 <= c, d <= n-2 and s' = d + (n-1)c.
    """

    n: int

    def __post_init__(self):
        _require_n("coarse decomposition", self.n)

    @property
    def nu(self) -> int:
        return nu_of(self.n)

    def coarse_one_handle(self, s: int) -> tuple[int, int, int]:
        """(first fine band, middle disk, second fine band) of coarse handle s."""
        if type(s) is not int:  # not isinstance: True is an int
            raise InvalidParameter(f"coarse 1-handle index must be an integer, got {s!r}")
        if not 1 <= s <= self.nu - 1:
            raise InvalidParameter(f"coarse 1-handle index {s} out of range")
        c = (s - 1) % (self.n - 1)
        d = (s - 1) // (self.n - 1)
        s_prime = d + (self.n - 1) * c
        return (s, self.nu - s + 1, self.nu + s_prime)

    def assignment(self) -> dict:
        """Fine handle -> coarse handle map; must be an exact partition."""
        fine_disks = {1: 0}  # coarse 0-handle
        fine_bands = {}
        for s in range(1, self.nu):
            first, disk, second = self.coarse_one_handle(s)
            for band in (first, second):
                if band in fine_bands:
                    raise InternalError(f"fine band {band} assigned to two coarse handles")
                fine_bands[band] = s
            if disk in fine_disks:
                raise InternalError(f"fine disk {disk} assigned to two coarse handles")
            fine_disks[disk] = s
        if sorted(fine_disks) != list(range(1, self.nu + 1)):
            raise InternalError("coarse assignment misses a fine 0-handle")
        if sorted(fine_bands) != list(range(1, 2 * (self.nu - 1) + 1)):
            raise InternalError("coarse assignment misses a fine 1-handle")
        return {"disks": fine_disks, "bands": fine_bands}


def pad_into_nabla(word: BraidWord) -> tuple[int, CombedGraph]:
    """Mark the letters of a positive word inside nabla(n), n = max(strands, length).

    Letter t (= s_i) lands in block t-1 of nabla, at position (n-1)(t-1) + i;
    the returned spine's neighborhood is the surface of the word, retagged
    into B_n (untouched strands contribute free disks).
    """
    if not word.is_positive():
        raise NotPositive("pad_into_nabla needs a positive braid word")
    if word.strands < 2:
        raise InvalidParameter("pad_into_nabla needs at least 2 strands")
    n = max(word.strands, len(word.letters))
    target = BraidedSurface(nabla(n))
    marked = []
    for t, (i, _) in enumerate(word.letters, start=1):
        marked.append((n - 1) * (t - 1) + i)
    return n, handle_spine(target, marked)


def expand_bands(rep: BandRepresentation) -> tuple[BraidWord, CombedGraph]:
    """Run each positive band through its chain of elementary handles.

    Band t = (i, j) contributes the block (s_i, ..., s_{j-1}) to the positive
    word p; on S(p), the original disks become node combs (or isolated
    points) and each band becomes a path of arcs through its block, passing
    through two-tooth combs on the intermediate disks.  The neighborhood of
    the graph is the original surface.
    """
    if not is_quasipositive(rep):
        raise NotQuasipositive("expand_bands needs a quasipositive representation")
    n = rep.strands
    letters = []
    base: list[int] = []  # handle index before each block
    for band in rep.bands:
        base.append(len(letters))
        letters.extend(range(band.i, band.j))
    word = BraidWord(n, tuple((c, 1) for c in letters))

    # teeth per disk: node teeth gather band endpoints, pass-through combs
    # carry a band across its intermediate disks
    node_teeth: dict[int, list[tuple[int, graphcalc.ArcEnd]]] = {s: [] for s in range(1, n + 1)}
    pass_combs: dict[int, list[tuple[int, graphcalc.Comb]]] = {s: [] for s in range(1, n + 1)}
    for t, band in enumerate(rep.bands):
        first = base[t] + 1
        last = base[t] + (band.j - band.i)
        node_teeth[band.i].append((first, graphcalc.ArcEnd(first, 0)))
        node_teeth[band.j].append((last, graphcalc.ArcEnd(last, 0)))
        for s in range(band.i + 1, band.j):
            enter = base[t] + (s - band.i)  # handle joining s-1, s
            leave = enter + 1               # handle joining s, s+1
            pass_combs[s].append(
                (enter, graphcalc.Comb((graphcalc.ArcEnd(enter, 0), graphcalc.ArcEnd(leave, 0))))
            )

    disks = []
    for s in range(1, n + 1):
        comps: list[tuple[int, object]] = []
        if node_teeth[s]:  # appended in strictly increasing handle order
            comps.append((node_teeth[s][0][0], graphcalc.Comb(tuple(tooth for _, tooth in node_teeth[s]))))
        else:
            comps.append((0, graphcalc.IsolatedPoint()))
        comps.extend(pass_combs[s])
        # component order inside a disk is immaterial; sort by lowest handle
        # for determinism
        disks.append(tuple(comp for _, comp in sorted(comps, key=lambda x: x[0])))
    graph = CombedGraph(BraidedSurface(BandRepresentation(n, tuple(EmbeddedBand(c, c + 1, 1) for c in letters))), tuple(disks))
    return word, graph


@dataclass(frozen=True)
class FiberReport:
    """Agreement report between the two models of the (n, n) fiber."""

    n: int
    chi_q: int
    chi_nabla: int
    components_q: int
    components_nabla: int
    alexander_agree: bool

    def ok(self) -> bool:
        return (
            self.chi_q == self.chi_nabla == 1 - (self.n - 1) ** 2
            and self.components_q == self.components_nabla == self.n
            and self.alexander_agree
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "chi": {"q": self.chi_q, "nabla": self.chi_nabla},
            "closure_components": {"q": self.components_q, "nabla": self.components_nabla},
            "alexander_agree": self.alexander_agree,
            "ok": self.ok(),
        }


def verify_fiber(n: int) -> FiberReport:
    """Check that S(q_n) and S(nabla_n) present the same fiber surface.

    Compares Euler characteristics, closure component counts, and Alexander
    polynomials of the two boundary links; `alexander_from_braid` returns
    the canonical form, so the polynomials agree up to units exactly when
    they are equal.  Any mismatch is an implementation bug, not a modelling
    ambiguity.
    """
    q = q_rep(n)
    nab = nabla(n)
    report = FiberReport(
        n=n,
        chi_q=euler_characteristic(BraidedSurface(q)),
        chi_nabla=euler_characteristic(BraidedSurface(nab)),
        components_q=len(cycles(band_permutation(q))),
        components_nabla=len(cycles(band_permutation(nab))),
        alexander_agree=alexander_from_braid(reduced_beta(q)) == alexander_from_braid(reduced_beta(nab)),
    )
    if not report.ok():
        raise FiberVerificationFailed(f"fiber models disagree: {report.to_json()}")
    return report
