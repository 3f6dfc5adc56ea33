"""Mutated combed-graph documents through the CLI.

Handle spines of S(q_2..4) grown by inverse Whitehead moves, and
`random_full_graph` documents, are each mutated one to three times by the
edits in `MUTATIONS` and sent to `reduce`, and to `quasipositize` when the
host is S(q_n).  The mutants are inputs the samplers would not produce:
many are refused, some are accepted.  Every run prints exactly one JSON
document and exits 0, 1 or 2 (never 3, never a traceback), and every
accepted `reduce` result validates again from its JSON.  On every mutant,
refused or not, `has_free_ends` agrees with its tooth objects.
`test_byte_identity` pins the `validate` problem lists of these mutants.
"""

import contextlib
import io
import json
import random
import sys
from collections import Counter

from qpfiber.braidcore import BandRepresentation
from qpfiber.cli import run
from qpfiber.constructions import q_rep
from qpfiber.graphcalc import ArcEnd, Comb, CombedGraph, FreeEnd, IsolatedPoint, validate
from qpfiber.sampling import inverse_whitehead, random_fine_handle_subset, random_full_graph
from qpfiber.surface import BraidedSurface, handle_spine


def _teeth(rng, disks, least=1):
    """The tooth list of a random comb with at least `least` teeth, or None."""
    combs = [comp["comb"] for comps in disks for comp in comps if len(comp.get("comb", ())) >= least]
    return rng.choice(combs) if combs else None


def swap_teeth(rng, disks):
    if teeth := _teeth(rng, disks, 2):
        k, m = rng.sample(range(len(teeth)), 2)
        teeth[k], teeth[m] = teeth[m], teeth[k]


def swap_components(rng, disks):
    comps = rng.choice(disks)
    if len(comps) >= 2:
        k, m = rng.sample(range(len(comps)), 2)
        comps[k], comps[m] = comps[m], comps[k]


def shift_slot(rng, disks):
    teeth = [tooth for comps in disks for comp in comps for tooth in comp.get("comb", ())]
    if ends := [tooth["arc_end"] for tooth in teeth if "arc_end" in tooth]:
        rng.choice(ends)[1] += rng.choice((-1, 1))


def move_tooth(rng, disks):
    comps = rng.choice(disks)
    combs = [comp["comb"] for comp in comps if "comb" in comp]
    if any(combs):
        source, target = rng.choice([teeth for teeth in combs if teeth]), rng.choice(combs)
        tooth = source.pop(rng.randrange(len(source)))
        target.insert(rng.randint(0, len(target)), tooth)


def insert_free_end(rng, disks):
    if (teeth := _teeth(rng, disks)) is not None:
        teeth.insert(rng.randint(0, len(teeth)), {"free_end": True})


def delete_tooth(rng, disks):
    if teeth := _teeth(rng, disks):
        del teeth[rng.randrange(len(teeth))]


def split_comb(rng, disks):
    comps = rng.choice(disks)
    at = [k for k, comp in enumerate(comps) if len(comp.get("comb", ())) >= 2]
    if at:
        k = rng.choice(at)
        teeth = comps[k]["comb"]
        cut = rng.randint(1, len(teeth) - 1)
        comps[k : k + 1] = [{"comb": teeth[:cut]}, {"comb": teeth[cut:]}]


def merge_combs(rng, disks):
    comps = rng.choice(disks)
    at = [k for k, comp in enumerate(comps) if "comb" in comp]
    if len(at) >= 2:
        k, m = sorted(rng.sample(at, 2))
        comps[k] = {"comb": comps[k]["comb"] + comps.pop(m)["comb"]}


MUTATIONS = [
    swap_teeth, swap_components, shift_slot, move_tooth,
    insert_free_end, delete_tooth, split_comb, merge_combs,
]


def grown_spine(rng, n):
    graph = handle_spine(BraidedSurface(q_rep(n)), random_fine_handle_subset(rng, 2 * (n - 1) ** 2))
    for _ in range(rng.randint(0, 12)):
        bands = [t for t in range(1, graph.host.band_count() + 1) if graph.arc_count(t)]
        if not bands:
            break
        band = rng.choice(bands)
        slot = rng.randrange(graph.arc_count(band))
        hostband = graph.host.bands[band - 1]
        graph = inverse_whitehead(graph, band, slot, rng.choice((hostband.i, hostband.j)))
    return graph


def mutant(rng, seed):
    """A mutated document and, when its host is S(q_n), that n."""
    if seed % 2:
        n = 2 + seed // 2 % 3
        graph = grown_spine(rng, n)
    else:
        n = None
        graph = random_full_graph(rng, max_strands=5, max_bands=6, max_arcs=16, expansions=8)
    doc = graph.to_json()
    del doc["arcs"]  # the teeth alone say where the arcs run
    for _ in range(rng.randint(1, 3)):
        rng.choice(MUTATIONS)(rng, doc["disks"])
    return doc, n


def unchecked(doc):
    """The graph a mutated document lists, built without validation."""
    def component(item):
        if item.get("point"):
            return IsolatedPoint()
        return Comb(tuple(FreeEnd() if tooth.get("free_end") else ArcEnd(*tooth["arc_end"]) for tooth in item["comb"]))
    host = BraidedSurface(BandRepresentation.from_json(doc["host"]))
    return CombedGraph(host, tuple(tuple(map(component, comps)) for comps in doc["disks"]))


def cli(argv, doc):
    """Exit code and the one JSON document `run` prints for `doc` on stdin."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--input", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), out.getvalue()
    report = json.loads(out.getvalue())  # exactly one document, or this raises
    assert report["ok"] == (code == 0)
    return code, report


def test_mutated_graphs_get_one_json_document_and_a_documented_exit_code():
    codes = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        doc, n = mutant(rng, seed)
        code, report = cli(["reduce"], doc)
        codes["reduce", code] += 1
        if code == 0:
            assert validate(CombedGraph.from_json(report["result"]["graph"])) == []
        if n is not None:
            code, _report = cli(["quasipositize", "--n", str(n)], doc)
            codes["quasipositize", code] += 1
    # the mutants reach both sides of validation, and the refusals of quasipositize
    assert codes["reduce", 0] and codes["reduce", 1] and codes["quasipositize", 0] and codes["quasipositize", 2]


def test_has_free_ends_matches_the_teeth_of_accepted_and_refused_graphs():
    seen = set()
    for seed in range(400):
        graph = unchecked(mutant(random.Random(seed), seed)[0])
        teeth = [tooth for comps in graph.disks for comp in comps if isinstance(comp, Comb) for tooth in comp.teeth]
        free = any(isinstance(tooth, FreeEnd) for tooth in teeth)
        assert graph.has_free_ends() == free
        seen.add((free, not validate(graph)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    extra = CombedGraph(graph.host, graph.disks + ((Comb((FreeEnd(),)),),))  # one disk more than the host has
    assert extra.has_free_ends() and validate(extra)
