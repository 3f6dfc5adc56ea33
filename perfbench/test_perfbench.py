"""Tests of the benchmark's own checkers, input generator, tracer and pacing."""

import gc
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402
import qpfiber  # noqa: E402
from qpfiber import cli, graphcalc, invariants  # noqa: E402,F401  cli is traced, so it must be in the snapshot
from spans import Target, Tracer  # noqa: E402

HOPF = (2, [(1, 2, 1)] * 2)
TREFOIL = (2, [(1, 2, 1)] * 3)
T33 = (3, [(1, 2, 1), (2, 3, 1)] * 3)


def test_closed_form_alexander():
    assert checks.torus_link_alexander(2) == [1, -1]            # Hopf link
    assert checks.torus_link_alexander(3) == [1, -1, 0, -1, 1]  # T(3,3)
    assert checks.canonical([0, -1, 1, 0]) == [1, -1]
    assert checks.canonical([0, 0]) == [0]


def test_surface_summary_of_examples():
    assert checks.surface_summary(*HOPF) == [[0, 2]]
    assert checks.surface_summary(*TREFOIL) == [[-1, 1]]
    assert checks.surface_summary(*T33) == [[-3, 3]]
    assert checks.surface_summary(3, [(1, 2, -1)]) == [[1, 1], [1, 1]]


def test_surface_summary_agrees_with_the_package():
    rng = random.Random(5)
    for _ in range(200):
        strands = rng.randint(2, 6)
        bands = []
        for _ in range(rng.randint(0, 7)):
            i = rng.randint(1, strands - 1)
            bands.append((i, rng.randint(i + 1, strands), rng.choice((1, -1))))
        rep = qpfiber.BandRepresentation(strands, tuple(bands))
        assert checks.surface_summary(strands, bands) == [list(c) for c in qpfiber.summary(qpfiber.BraidedSurface(rep)).components]


def test_alexander_properties_pass_on_examples():
    assert checks.alexander_problems([-1, 1], [1, -1], 2) == []          # Hopf link
    assert checks.alexander_problems([1, -1, 1], [-1, 1, -1], 1) == []   # trefoil
    assert checks.alexander_problems([1, -1, 0, -1, 1], checks.torus_link_alexander(3), 3) == []


def test_alexander_properties_catch_faults():
    assert checks.alexander_problems([1, -1, 1], [1, -2, 1], 1)   # routes disagree
    assert checks.alexander_problems([1, 2], [1, 2], 1)           # not symmetric
    assert checks.alexander_problems([1, 1, 1], [1, 1, 1], 1)     # knot with Delta(1) = 3
    assert checks.alexander_problems([1, -1, 1], [1, -1, 1], 2)   # link with Delta(1) != 0


def test_fiber_report_checkers():
    good = {"chi": -3, "components": 1, "boundary": 3, "exponent_sum": 8,
            "alexander": [1, -1, 0, -1, 1], "summary": {"chi": -3, "components": [[-3, 3]]}}
    assert checks.fiber_invariants_problems(3, good) == []
    assert checks.fiber_invariants_problems(3, dict(good, exponent_sum=6))
    report = qpfiber.verify_fiber(3).to_json()
    assert checks.verify_fiber_problems(3, report) == []
    assert checks.verify_fiber_problems(3, dict(report, ok=False))


def test_q_rep_bands_match_the_package():
    for n in range(2, 7):
        rep = qpfiber.q_rep(n)
        assert inputs.q_rep_bands(n) == [(b.i, b.j, b.sign) for b in rep.bands]


def test_grown_graphs_are_valid_and_keep_the_marked_summary():
    rng = random.Random(11)
    for n, doubly, singly, arcs in ((3, 1, 2, 15), (4, 2, 5, 40), (5, 13, 3, 60)):
        bands, marked, disks = inputs.grown_graph(rng, n, doubly, singly, arcs)
        assert len(marked) == 2 * doubly + singly
        graph = graphcalc.CombedGraph.from_json(inputs.graph_doc(bands, disks))
        assert graph.total_arcs() == arcs
        want = checks.surface_summary(len(disks), [bands[t - 1] for t in marked])
        assert [list(c) for c in graphcalc.neighborhood_summary(graph).components] == want


def test_sweep_reps_are_connected_and_seeded():
    reps = inputs.sweep_reps(random.Random(3))
    assert len(reps) == 256
    assert all(checks.is_connected(strands, bands) for strands, bands in reps)
    assert reps == inputs.sweep_reps(random.Random(3))


def _snapshot():
    names = {}
    for name, module in list(sys.modules.items()):
        if name == "qpfiber" or name.startswith("qpfiber."):
            names[name] = dict(vars(module))
    for cls in (graphcalc.CombedGraph, invariants.LaurentPolynomial):
        names[cls.__qualname__] = dict(vars(cls))
    return names


def test_tracer_restores_every_name_and_records_spans():
    before = _snapshot()
    tracer = layers.tracer()
    with tracer:
        assert qpfiber.beta is not before["qpfiber"]["beta"]
        qpfiber.alexander_from_braid(qpfiber.beta(qpfiber.q_rep(3)))
    assert _snapshot() == before
    assert tracer.missing == []
    spans = tracer.spans
    assert spans["invariants.reduced_burau"].calls == 1
    assert spans["invariants.mat_mul"].calls == spans["invariants.reduced_burau"].extra
    assert spans["invariants.poly_mul"].calls > 0
    assert spans["invariants.reduced_burau"].self <= spans["invariants.reduced_burau"].total


def test_missing_function_is_reported_absent():
    tracer = Tracer([Target("graphcalc.gone", "qpfiber.graphcalc", "no_such_function"),
                     Target("graphcalc.validate", "qpfiber.graphcalc", "validate")])
    with tracer:
        pass
    assert tracer.missing == ["graphcalc.gone"]

    tracer = layers.tracer()
    tracer.missing.append("graphcalc.cycle_words")
    metrics, absent = layers.per_layer(tracer, traced_s=1.0, overhead_s=0.0, stdout_bytes=0)
    assert absent == ["graphcalc.cycles_enumerated"]
    assert "graphcalc.cycles_enumerated" not in metrics


def test_pace_scales_by_the_samples_near_an_operation():
    paced = pace.Pace()
    # four samples before the operation, one inside it, four after it
    paced.starts = [0.0, 1.0, 2.0, 3.0, 12.0, 30.0, 31.0, 32.0, 33.0]
    paced.ends = [start + 2 * pace.REFERENCE_S for start in paced.starts]
    seconds, at_reference = paced.scale(10.0, 20.0)
    assert abs(seconds - (10.0 - 2 * pace.REFERENCE_S)) < 1e-12  # the sample inside is taken out
    assert abs(at_reference - seconds / 2) < 1e-12  # the machine ran at half the reference speed


def test_pace_kernel_starts_no_collection():
    before = gc.get_count()[0]
    pace.kernel()
    assert gc.get_count()[0] == before
