"""The traced functions of each qpfiber module and the per-layer metrics.

Each metric names the spans it reads; if one of them is missing from the
package, the metric is reported absent.
"""

from __future__ import annotations

from spans import Target, Tracer


def _arcs_in(args, _result) -> int:
    graph = args[0]
    return sum(
        1 for comps in graph.disks for comp in comps for tooth in getattr(comp, "teeth", ()) if hasattr(tooth, "band")
    ) // 2


TARGETS = [
    Target("cli.run", "qpfiber.cli", "run"),
    Target("graphcalc.from_json", "qpfiber.graphcalc", "CombedGraph.from_json"),
    Target("graphcalc.validate", "qpfiber.graphcalc", "validate"),
    Target("graphcalc.neighborhood_summary", "qpfiber.graphcalc", "neighborhood_summary"),
    Target("graphcalc.arc_count", "qpfiber.graphcalc", "CombedGraph.arc_count"),
    Target("graphcalc.whitehead_step", "qpfiber.graphcalc", "whitehead_step"),
    Target("graphcalc.reduce_with_trace", "qpfiber.graphcalc", "reduce_with_trace", count=_arcs_in),
    Target("graphcalc.is_full", "qpfiber.graphcalc", "is_full"),
    Target("graphcalc.cycle_words", "qpfiber.graphcalc", "cycle_words", count=lambda a, r: len(r)),
    Target("qpize.quasipositize", "qpfiber.qpize", "quasipositize", count=lambda a, r: len(r.output.bands)),
    Target("invariants.reduced_burau", "qpfiber.invariants", "reduced_burau", count=lambda a, r: len(a[0].letters)),
    Target("invariants.mat_mul", "qpfiber.invariants", "mat_mul"),
    Target("invariants.mat_det", "qpfiber.invariants", "mat_det"),
    Target("invariants.poly_mul", "qpfiber.invariants", "LaurentPolynomial.__mul__", span=False, aliases=("__rmul__",)),
    Target("invariants.exact_div", "qpfiber.invariants", "LaurentPolynomial.exact_div", span=False),
    Target("invariants.seifert_matrix", "qpfiber.invariants", "seifert_matrix"),
    Target("_linking.linking_number", "qpfiber._linking", "linking_number", count=lambda a, r: len(a[0]) * len(a[1])),
    Target("surface.summary", "qpfiber.surface", "summary"),
    Target("surface.handle_spine", "qpfiber.surface", "handle_spine"),
    Target("constructions.verify_fiber", "qpfiber.constructions", "verify_fiber"),
    Target("constructions.expand_bands", "qpfiber.constructions", "expand_bands"),
    Target("braidcore.beta", "qpfiber.braidcore", "beta", count=lambda a, r: len(r.letters)),
]


def tracer() -> Tracer:
    return Tracer(TARGETS)


def _per_step(spans) -> float:
    steps = spans["graphcalc.whitehead_step"].calls
    inside = sum(
        spans[key].nested.get("graphcalc.whitehead_step", 0)
        for key in ("graphcalc.validate", "graphcalc.neighborhood_summary")
    )
    return inside / steps if steps else 0.0


def _read(key: str, field: str, unit: str):
    return [key], unit, lambda spans: getattr(spans[key], field)


# metric -> (spans it reads, unit, value from the spans).  "extra" is the
# count a Target's `count` hook adds up.
METRICS = {
    "invariants.burau_s": _read("invariants.reduced_burau", "total", "s"),
    "invariants.burau_letters": _read("invariants.reduced_burau", "extra", "count"),
    "invariants.mat_mul_s": _read("invariants.mat_mul", "total", "s"),
    "invariants.poly_mul_count": _read("invariants.poly_mul", "calls", "count"),
    "invariants.det_s": _read("invariants.mat_det", "total", "s"),
    "invariants.exact_div_count": _read("invariants.exact_div", "calls", "count"),
    "invariants.seifert_self_s": _read("invariants.seifert_matrix", "self", "s"),
    "linking.linking_calls": _read("_linking.linking_number", "calls", "count"),
    "linking.linking_s": _read("_linking.linking_number", "total", "s"),
    # computed as len(loop_a) * len(loop_b) per call, not counted inside the scan
    "linking.segment_pairs": _read("_linking.linking_number", "extra", "count"),
    "graphcalc.validate_calls": _read("graphcalc.validate", "calls", "count"),
    "graphcalc.validate_s": _read("graphcalc.validate", "total", "s"),
    "graphcalc.summary_calls": _read("graphcalc.neighborhood_summary", "calls", "count"),
    "graphcalc.summary_s": _read("graphcalc.neighborhood_summary", "total", "s"),
    "graphcalc.arc_count_calls": _read("graphcalc.arc_count", "calls", "count"),
    "graphcalc.arc_count_s": _read("graphcalc.arc_count", "total", "s"),
    "graphcalc.whitehead_steps": _read("graphcalc.whitehead_step", "calls", "count"),
    "graphcalc.whitehead_self_s": _read("graphcalc.whitehead_step", "self", "s"),
    "graphcalc.checks_per_step": (
        ["graphcalc.whitehead_step", "graphcalc.validate", "graphcalc.neighborhood_summary"], "checks/step", _per_step,
    ),
    "graphcalc.arcs_in": _read("graphcalc.reduce_with_trace", "extra", "count"),
    "graphcalc.is_full_calls": _read("graphcalc.is_full", "calls", "count"),
    "graphcalc.is_full_s": _read("graphcalc.is_full", "total", "s"),
    "graphcalc.cycles_enumerated": _read("graphcalc.cycle_words", "extra", "count"),
    "graphcalc.from_json_s": _read("graphcalc.from_json", "total", "s"),
    "cli.self_s": _read("cli.run", "self", "s"),
    "qpize.self_s": _read("qpize.quasipositize", "self", "s"),
    "qpize.output_bands": _read("qpize.quasipositize", "extra", "count"),
    "surface.summary_calls": _read("surface.summary", "calls", "count"),
    "surface.summary_s": _read("surface.summary", "total", "s"),
    "surface.handle_spine_s": _read("surface.handle_spine", "total", "s"),
    "constructions.verify_fiber_self_s": _read("constructions.verify_fiber", "self", "s"),
    "constructions.expand_bands_s": _read("constructions.expand_bands", "total", "s"),
    "braidcore.beta_s": _read("braidcore.beta", "total", "s"),
    "braidcore.beta_letters": _read("braidcore.beta", "extra", "count"),
}


def per_layer(tracer: Tracer, traced_s: float, overhead_s: float, stdout_bytes: int):
    """Per-layer metrics as {name: (value, unit)}, and the names reported absent."""
    metrics, absent = {}, []
    for name, (keys, unit, value) in METRICS.items():
        if any(key in tracer.missing for key in keys):
            absent.append(name)
        else:
            metrics[name] = (value(tracer.spans), unit)
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.self_share_pct"] = (100 * tracer.self_time() / traced_s, "%")
    return metrics, absent
