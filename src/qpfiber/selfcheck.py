"""The acceptance suite, as plain callables.

Each check returns (name, ok, detail).  The same functions back the pytest
acceptance module and the CLI `selftest` verb, so the repository verifies
itself without a test harness.  All checks are exact; sizes follow the
stated criteria.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import graphcalc
from ._linking import pl_seifert_matrix
from .braidcore import (
    BandRepresentation,
    BraidWord,
    EmbeddedBand,
    beta,
    free_reduction,
    permutation_cycles,
    reduced_beta,
)
from .constructions import MAX_N, expand_bands, nabla, pad_into_nabla, q_rep, verify_fiber
from .errors import FiberVerificationFailed
from .invariants import (
    _band_crossings,
    _basis_cycles,
    alexander_from_braid,
    alexander_from_seifert,
    mat_det,
    seifert_matrix,
)
from .qpize import quasipositize, quasipositize_handle_subsurface
from .sampling import (
    random_band_representation,
    random_connected_representation,
    random_direct_graph,
    random_full_graph,
    random_graph_mixed_fullness,
    random_fine_handle_subset,
)
from .surface import BraidedSurface, euler_characteristic, handle_spine, summary


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def check_chi_identity() -> CheckResult:
    """Criterion 1: chi(S(q_n)) = 1 - (n-1)^2 = chi(S(nabla_n)) for n = 2..6."""
    failures = []
    for n in range(2, 7):
        want = 1 - (n - 1) ** 2
        chi_q = euler_characteristic(BraidedSurface(q_rep(n)))
        chi_nab = euler_characteristic(BraidedSurface(nabla(n)))
        if not (chi_q == want == chi_nab):
            failures.append(f"n={n}: q {chi_q}, nabla {chi_nab}, want {want}")
    return CheckResult("chi-identity", not failures, "; ".join(failures) or "n=2..6 exact")


def check_fiber_agreement() -> CheckResult:
    """Criterion 2: verify_fiber passes for n = 2..6."""
    try:
        for n in range(2, 7):
            verify_fiber(n)
    except FiberVerificationFailed as exc:
        return CheckResult("fiber-agreement", False, str(exc))
    return CheckResult("fiber-agreement", True, "components and Alexander agree for n=2..6")


def check_cross_oracle(seed: int = 20603) -> CheckResult:
    """Criterion 3: Seifert and Burau routes agree on 200 quasipositive and 100 signed connected samples."""
    rng = random.Random(seed)
    reps = [random_connected_representation(rng, 4, 5, positive_only=True) for _ in range(200)]
    reps += [random_connected_representation(rng, 4, 5) for _ in range(100)]
    failures = []
    for trial, rep in enumerate(reps):
        via_seifert = alexander_from_seifert(seifert_matrix(rep))
        via_burau = alexander_from_braid(beta(rep))
        if via_seifert != via_burau:
            failures.append(f"trial {trial}: {rep.to_json()}")
    return CheckResult(
        "cross-oracle-alexander", not failures,
        "; ".join(failures[:3]) or "200/200 quasipositive and 100/100 signed agree",
    )


def check_pl_seifert(seed: int = 20610) -> CheckResult:
    """Criterion 10: the integer Seifert form equals the PL model entry for entry.

    100 seeded signed representations, connected or not; the PL model's
    linking numbers share no arithmetic with the integer terms.
    """
    rng = random.Random(seed)
    reps = [random_band_representation(rng, max_strands=6, max_bands=8, min_strands=2) for _ in range(100)]
    failures = [f"trial {t}: {rep.to_json()}" for t, rep in enumerate(reps) if seifert_matrix(rep) != pl_seifert_matrix(rep)]
    disconnected = sum(len(summary(BraidedSurface(rep)).components) > 1 for rep in reps)
    # an odd count of cycles through a band has a middle slot: its strip is flat, the q = 0 case of both terms
    middle = sum(any(len(slots) % 2 for slots in _band_crossings(_basis_cycles(rep)).values()) for rep in reps)
    return CheckResult(
        "pl-seifert-agreement", not failures,
        "; ".join(failures[:3])
        or f"{len(reps)}/{len(reps)} agree ({disconnected} disconnected, {middle} with a middle slot)",
    )


def _leibniz_det(matrix) -> dict:
    """The signed sum over permutations, on {exponent: coefficient} dicts; no zero coefficient is kept."""
    total: dict[int, int] = {}
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = {0: -1 if inversions % 2 else 1}
        for row, column in enumerate(perm):
            product: dict[int, int] = {}
            for e1, c1 in term.items():
                for e2, c2 in matrix[row][column].items():
                    product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
            term = product
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def _determinant_cases(rng: random.Random) -> list[tuple[str, list]]:
    """Seeded (case, matrix of {exponent: coefficient} dicts) pairs that drive each phase of `mat_det`.

    An entry made by `entry` is nonzero and no unit: its lowest term has a
    coefficient of at least 2 in absolute value.
    """

    def entry(low, size):
        terms = {low + rng.randint(1, 3): rng.randint(-size, size) for _ in range(rng.randint(0, 2))}
        terms[low] = rng.choice((1, -1)) * rng.randint(2, size)
        return {e: c for e, c in terms.items() if c}

    def scaled(row, factor):
        return [{e + j: c * x for e, x in terms.items() for j, c in factor.items()} for terms in row]

    cases = []
    for size in range(2, 6):
        for _ in range(3):
            # a -t^j pivot below row 0: the unit phase swaps it up; the rest is sparse and small
            unit_swap = [[entry(rng.randint(-2, 2), 9) if rng.random() < 0.7 else {} for _ in range(size)]
                         for _ in range(size)]
            for row in unit_swap:
                row[0] = entry(rng.randint(-2, 2), 9)
            unit_swap[rng.randrange(1, size)][0] = {rng.randint(-3, 3): -1}
            cases.append(("unit pivot after a swap", unit_swap))
            # one -t^j pivot below row 0, then a packed complement of large entries on shifted rows
            lows = [-rng.randint(1, 6) for _ in range(size)]
            packed = [[entry(low, 10**6) for _ in range(size)] for low in lows]
            packed[rng.randrange(1, size)][0] = {rng.randint(-3, 3): -1}
            cases.append(("packed tail", packed))
            # a row -t^j times one whose column-0 entry is a unit pivot, so the unit step clears it;
            # a row 2 t^j times another, with no unit in column 0, so every step is packed
            unit_pivot = {rng.randint(-2, 2): 1}
            for name, factor, pivot in (("singular by a unit", -1, unit_pivot), ("singular, packed", 2, None)):
                singular = [[entry(rng.randint(-2, 2), 9) for _ in range(size)] for _ in range(size)]
                source, target = rng.sample(range(size), 2)
                if pivot:
                    singular[source][0] = pivot
                singular[target] = scaled(singular[source], {rng.randint(-2, 2): factor})
                cases.append((name, singular))
    for size in range(2, 6):
        for _ in range(3):
            # mostly +-t^j on a narrow band of exponents: long unit phases, pivot rows that clear
            # several rows, and fill-in that cancels
            unit_heavy = [[{rng.randint(0, 1): rng.choice((1, -1))} if rng.random() < 0.8 else {}
                           for _ in range(size)] for _ in range(size)]
            cases.append(("unit-heavy", unit_heavy))
    return cases


def check_determinant(seed: int = 20611) -> CheckResult:
    """Criterion 11: `mat_det` equals its own Leibniz sum, exactly, not up to units.

    The seeded matrices take a -t^j unit pivot after a row swap, a packed
    tail of large entries on rows with different negative lowest exponents,
    mostly +-t^j entries that run long unit phases, and singular matrices
    in each phase.  Both Alexander routes compare their polynomials up to
    units, so they would miss a lost unit, sign or shift; this check would
    not.
    """
    cases = _determinant_cases(random.Random(seed))
    failures = []
    for index, (name, matrix) in enumerate(cases):
        det = mat_det(matrix)
        if {e: c for e, c in enumerate(det.coeffs, det.low) if c} != _leibniz_det(matrix):
            failures.append(f"case {index} ({name}): {matrix}")
    return CheckResult(
        "determinant-leibniz", not failures,
        "; ".join(failures[:3]) or f"{len(cases)}/{len(cases)} seeded matrices (unit, unit-heavy, packed, singular)",
    )


def _nested_representation(rng: random.Random) -> BandRepresentation:
    """Bands on 2-7 strands, low ends mostly 1 or 2, in nested inverse pairs.

    Each step opens a band, closes the last open one with its inverse, or
    adds a band alone; so the inverse of a band follows it after whole
    pairs, and its letters cancel across band boundaries, into the bands
    before it.
    """
    n = rng.randint(2, 7)
    bands: list[EmbeddedBand] = []
    open_bands: list[EmbeddedBand] = []
    for _ in range(rng.randint(0, 12)):
        if open_bands and rng.random() < 0.4:
            band = open_bands.pop()
            bands.append(EmbeddedBand(band.i, band.j, -band.sign))
            continue
        i = rng.randint(1, min(2, n - 1))
        band = EmbeddedBand(i, rng.randint(i + 1, n), rng.choice((1, -1)))
        bands.append(band)
        if rng.random() < 0.6:
            open_bands.append(band)
    return BandRepresentation(n, tuple(bands))


def check_reduced_beta(seed: int = 20612) -> CheckResult:
    """Criterion 12: `reduced_beta` is `free_reduction` of the expanded beta, letter for letter.

    On 2,000 seeded representations of nested inverse band pairs, whose
    cancellation reaches back into earlier bands, and on q_rep(n) and
    nabla(n) for n = 2..MAX_N.  The reference expands every band with
    `beta` and reduces in one stack pass, sharing no step with the
    band-by-band build.
    """
    rng = random.Random(seed)
    reps = [_nested_representation(rng) for _ in range(2000)]
    fibers = [model(n) for n in range(2, MAX_N + 1) for model in (q_rep, nabla)]
    failures = [
        str(rep.to_json()) for rep in reps + fibers
        if reduced_beta(rep).letters != tuple(free_reduction(beta(rep).letters))
    ]
    cancelled = sum(len(reduced_beta(rep)) < len(beta(rep)) for rep in reps)
    return CheckResult(
        "reduced-beta", not failures,
        "; ".join(failures[:3])
        or f"{len(reps)}/{len(reps)} seeded ({cancelled} cancel across bands) and q_rep, nabla n=2..{MAX_N}",
    )


def _all_positive_words(max_strands: int, max_length: int):
    for n in range(2, max_strands + 1):
        for length in range(max_length + 1):
            for combo in itertools.product(range(1, n), repeat=length):
                yield BraidWord(n, tuple((i, 1) for i in combo))


def check_pad_pipeline() -> CheckResult:
    """Criterion 4: pad_into_nabla gives full graphs presenting S(p)."""
    failures = 0
    count = 0
    for word in _all_positive_words(4, 6):
        count += 1
        n, graph = pad_into_nabla(word)
        want = summary(
            BraidedSurface(
                BandRepresentation(n, tuple(EmbeddedBand(i, i + 1, 1) for i, _ in word.letters))
            )
        )
        if not graphcalc.is_full(graph) or graphcalc.neighborhood_summary(graph) != want:
            failures += 1
    return CheckResult(
        "pad-into-nabla", failures == 0, f"{count - failures}/{count} positive words (m<=4, len<=6)"
    )


def check_expand_pipeline(seed: int = 20604) -> CheckResult:
    """Criterion 5: expand_bands gives positive words and full matching graphs."""
    rng = random.Random(seed)
    failures = []
    for trial in range(200):
        rep = random_band_representation(
            rng, max_strands=5, max_bands=5, positive_only=True, min_strands=2
        )
        word, graph = expand_bands(rep)
        ok = (
            word.is_positive()
            and graphcalc.is_full(graph)
            and graphcalc.neighborhood_summary(graph) == summary(BraidedSurface(rep))
        )
        if not ok:
            failures.append(f"trial {trial}: {rep.to_json()}")
    return CheckResult(
        "expand-bands", not failures, "; ".join(failures[:3]) or "200/200 representations"
    )


def check_self_calibration(seed: int = 20605) -> CheckResult:
    """Criterion 6: full-spine neighborhoods match the surface summary."""
    rng = random.Random(seed)
    failures = []
    for trial in range(300):
        rep = random_band_representation(rng, max_strands=5, max_bands=6)
        surface = BraidedSurface(rep)
        spine = handle_spine(surface, range(1, len(rep.bands) + 1))
        if graphcalc.neighborhood_summary(spine) != summary(surface):
            failures.append(f"trial {trial}: {rep.to_json()}")
    return CheckResult(
        "self-calibration", not failures, "; ".join(failures[:3]) or "300/300 spines"
    )


def check_whitehead_reduction(seed: int = 20606) -> CheckResult:
    """Criterion 7: reduction terminates, step by step, summary preserved; `reduce_with_trace` agrees.

    The stepwise loop freezes the working copy after every move
    (`whitehead_step`); `reduce_with_trace` keeps one working copy for the
    whole run.  Both must give the same graph and the same sites.
    """
    rng = random.Random(seed)
    failures = []
    for trial in range(200):
        graph = random_full_graph(rng, max_arcs=12, expansions=5)
        start_arcs = graph.total_arcs()
        want = graphcalc.neighborhood_summary(graph)
        trace = []
        current = graph
        ok = True
        while True:
            sites = graphcalc.eligible_sites(current)
            if not sites:
                break
            nxt = graphcalc.whitehead_step(current, sites[0])
            trace.append(sites[0])
            if nxt.total_arcs() != current.total_arcs() - 1:
                ok = False
                break
            fresh = graphcalc.CombedGraph(nxt.host, nxt.disks)  # traced again, not the summary `nxt` took over
            if graphcalc.neighborhood_summary(fresh) != want:
                ok = False
                break
            if not graphcalc.is_full(fresh):
                ok = False
                break
            current = nxt
        if not ok or len(trace) > start_arcs or graphcalc.reduce_with_trace(graph) != (current, trace):
            failures.append(f"trial {trial}")
    return CheckResult(
        "whitehead-reduction", not failures, "; ".join(failures[:3]) or "200/200 graphs"
    )


def check_quasipositize(seed: int = 20607) -> CheckResult:
    """Criterion 8: fiber spines reproduce the fiber; random subsets match."""
    failures = []
    for n in (2, 3):
        result = quasipositize_handle_subsurface(n, range(1, 2 * (n - 1) ** 2 + 1))
        fiber_boundary = len(permutation_cycles(beta(result.output)))
        alexander_ok = alexander_from_braid(beta(result.output)) == alexander_from_braid(beta(nabla(n)))
        if fiber_boundary != n or not alexander_ok:
            failures.append(f"full spine n={n}")
    rng = random.Random(seed)
    for trial in range(100):
        n = 3 if trial % 2 == 0 else 4
        subset = random_fine_handle_subset(rng, 2 * (n - 1) ** 2)
        spine = handle_spine(BraidedSurface(q_rep(n)), subset)
        want = graphcalc.neighborhood_summary(spine)
        result = quasipositize(n, spine)
        if not all(b.sign == 1 for b in result.output.bands) or result.output_summary != want:
            failures.append(f"trial {trial} n={n} subset={subset}")
    return CheckResult(
        "quasipositize", not failures, "; ".join(failures[:3]) or "fiber spines + 100 subsets"
    )


def _bruteforce_is_full(graph) -> bool:
    """Independent fullness check: arc subsets forming cycles, words by stack.

    Full here means that no vertex-simple cycle has a word that reduces to
    the identity.  That matches pi_1-injectivity only for graphs that can be
    drawn in the disks, the ones `validate` accepts.  The arcs are read off
    the teeth here, not off the graph's arc-end numbering, which folding
    reads: slot p on the i side pairs with slot r-1-p on the j side.
    """
    tree = graphcalc._host_spanning_tree(graph.host)
    teeth: dict = {}  # (band, side) -> [(slot, node)]
    for disk, comps in enumerate(graph.disks, start=1):
        for ci, comp in enumerate(comps):
            for tooth in comp.teeth if isinstance(comp, graphcalc.Comb) else ():
                if isinstance(tooth, graphcalc.ArcEnd):
                    side = "i" if disk == graph.host.bands[tooth.band - 1].i else "j"
                    teeth.setdefault((tooth.band, side), []).append((tooth.slot, (disk, ci)))
    edges = []
    for band in range(1, graph.host.band_count() + 1):
        i_side, j_side = (sorted(teeth.get((band, side), [])) for side in ("i", "j"))
        edges += [(band, i_side[p][1], j_side[len(i_side) - 1 - p][1]) for p in range(len(i_side))]
    m = len(edges)
    for mask in range(1, 1 << m):
        chosen = [edges[e] for e in range(m) if mask >> e & 1]
        adj: dict = {}
        for eidx, (_band, ni, nj) in enumerate(chosen):
            adj.setdefault(ni, []).append((eidx, nj))
            adj.setdefault(nj, []).append((eidx, ni))
        if any(len(links) != 2 for links in adj.values()):
            continue
        # every node has degree 2: one cycle exactly when the walk from the least node uses every arc
        start = node = min(adj)
        word, used = [], set()
        while True:
            eidx, other = next((e, o) for e, o in adj[node] if e not in used)
            used.add(eidx)
            band, ni, _nj = chosen[eidx]
            if band not in tree:
                word.append((band, 1 if node == ni else -1))
            node = other
            if node == start:
                break
        if len(used) < len(chosen):
            continue
        stack = []
        for letter in word:
            if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        while len(stack) >= 2 and stack[0][0] == stack[-1][0] and stack[0][1] == -stack[-1][1]:
            stack = stack[1:-1]
        if not stack:
            return False
    return True


def check_injectivity_detector(seed: int = 20608) -> CheckResult:
    """Criterion 9: bigon/spine sanity plus brute-force agreement.

    Two graph families meet the brute force: graphs grown from spines (full,
    or made not full by a bigon) and directly sampled graphs that `validate`
    accepts, which need not come from any spine.
    """
    failures = []
    host = BraidedSurface(BandRepresentation(2, (EmbeddedBand(1, 2, 1), EmbeddedBand(1, 2, 1))))
    bigon = graphcalc.CombedGraph(
        host,
        (
            (graphcalc.Comb((graphcalc.ArcEnd(1, 0), graphcalc.ArcEnd(1, 1))),),
            (graphcalc.Comb((graphcalc.ArcEnd(1, 0), graphcalc.ArcEnd(1, 1))),),
        ),
    )
    if graphcalc.is_full(bigon):
        failures.append("bigon judged full")
    rng = random.Random(seed)
    for trial in range(100):
        rep = random_band_representation(rng, max_strands=5, max_bands=6)
        spine = handle_spine(BraidedSurface(rep), range(1, len(rep.bands) + 1))
        if not graphcalc.is_full(spine):
            failures.append(f"spine trial {trial} judged not full")
    for trial in range(100):
        graph = random_graph_mixed_fullness(rng)
        if graphcalc.is_full(graph) != _bruteforce_is_full(graph):
            failures.append(f"brute-force disagreement at trial {trial}")
    direct = 0
    for trial in range(150):
        graph = random_direct_graph(rng, max_arcs=10)
        if graphcalc.validate(graph):
            continue
        direct += 1
        if graphcalc.is_full(graph) != _bruteforce_is_full(graph):
            failures.append(f"brute-force disagreement at direct trial {trial}")
    return CheckResult(
        "fullness-detector",
        not failures,
        "; ".join(failures[:3]) or f"bigon + spines + 100 spine-grown + {direct} direct-sampled",
    )


def run_all(seed: int = 20600) -> list[CheckResult]:
    return [
        check_chi_identity(),
        check_fiber_agreement(),
        check_cross_oracle(seed + 3),
        check_pad_pipeline(),
        check_expand_pipeline(seed + 5),
        check_self_calibration(seed + 6),
        check_whitehead_reduction(seed + 7),
        check_quasipositize(seed + 8),
        check_injectivity_detector(seed + 9),
        check_pl_seifert(seed + 10),
        check_determinant(seed + 11),
        check_reduced_beta(seed + 12),
    ]
