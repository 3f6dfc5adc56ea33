"""The three workloads: fiber, qpize and oracle-sweep.

A workload makes its inputs and their expected results from the seed
(`generate`, the benchmark's own code, run once and not timed), then loads
them into one round of operations (`load`, timed as part of set-up).  An
operation is an `Op`: `run` does the work that is timed, `check` compares
its output with the benchmark's own computation and returns a list of
problems.  `stratum` names the operation's size class.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import qpfiber as qp
from qpfiber import cli


@dataclass
class Op:
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], list]


class Workload:
    name = ""
    largest: tuple[str, ...] = ()  # strata of the largest operation class

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.stdout_bytes = 0
        self.ops: list[Op] = []
        self.warmup: list[Op] = []

    def generate(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Turn the generated inputs into `ops` and `warmup`; the default has nothing to load."""

    def cli(self, argv: list[str]):
        """`qpfiber <argv>` in process; returns (exit code, parsed report)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return code, json.loads(text)

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)


def _cli_problems(outcome, inner: Callable[[dict], list]) -> list:
    code, report = outcome
    if code != 0 or not report.get("ok"):
        return [f"exit {code}: {report.get('kind')} {report.get('error')}"]
    return inner(report["result"])


class Fiber(Workload):
    """verify-fiber --n k and invariants of q_rep(k), k = 2..6, via the CLI."""

    name = "fiber"
    largest = ("verify-fiber-6", "invariants-6")

    # Copies per round.  Six operations are smaller than k = 5 and two are
    # larger, so the median falls inside k = 5, whose 0.5-1 s operations
    # span more of the machine's speed changes than k = 4's.  One copy of
    # k = 6 keeps a round near 15 s, so a run holds more than one.
    COPIES = {2: 1, 3: 1, 4: 1, 5: 3, 6: 1}

    def generate(self):
        ops = []
        for n, copies in self.COPIES.items():
            path = self.write(f"q_rep_{n}.json", inputs.rep_doc((n - 1) ** 2 + 1, inputs.q_rep_bands(n)))
            ops += [self._verify(n), self._invariants(n, path)] * copies
        random.Random(self.seed).shuffle(ops)
        self.ops = ops
        self.warmup = [op for op in ops if op.stratum.endswith(("-2", "-3"))]

    def _verify(self, n):
        return Op(
            f"verify-fiber-{n}",
            lambda: self.cli(["verify-fiber", "--n", str(n)]),
            lambda out: _cli_problems(out, lambda r: checks.verify_fiber_problems(n, r)),
        )

    def _invariants(self, n, path):
        return Op(
            f"invariants-{n}",
            lambda: self.cli(["invariants", "--input", path]),
            lambda out: _cli_problems(out, lambda r: checks.fiber_invariants_problems(n, r)),
        )


class Qpize(Workload):
    """quasipositize --n k --input <graph> on seeded full combed graphs."""

    name = "qpize"
    largest = ("q6-200", "q5-dense-100")

    def generate(self):
        rng = random.Random(self.seed)
        ops = []
        for label, n, doubly, singly, arcs, copies in inputs.QPIZE_STRATA:
            for copy in range(copies):
                ops.append(self._graph_op(rng, label, n, (doubly, singly, arcs), copy))
        rng.shuffle(ops)
        self.ops = ops
        self.warmup = [self._graph_op(rng, "warmup", 3, (1, 2, 12), 0)]

    def _graph_op(self, rng, label, n, shape, copy):
        bands, marked, disks = inputs.grown_graph(rng, n, *shape)
        path = self.write(f"{label}-{copy}.json", inputs.graph_doc(bands, disks))
        want = checks.surface_summary(len(disks), [bands[t - 1] for t in marked])

        def check(result):
            output = result["output"]
            problems = [f"negative band {b}" for b in output["bands"] if b[2] != 1]
            got = checks.surface_summary(output["strands"], output["bands"])
            if got != want:
                problems.append(f"output summary {got} != marked summary {want}")
            return problems

        return Op(
            label,
            lambda: self.cli(["quasipositize", "--n", str(n), "--input", path]),
            lambda out: _cli_problems(out, check),
        )


class OracleSweep(Workload):
    """Both Alexander routes and the surface summaries on seeded surfaces."""

    name = "oracle-sweep"
    largest = ("q_rep-5",)

    def generate(self):
        rng = random.Random(self.seed)
        reps = [(f"random-{strands}", strands, bands) for strands, bands in inputs.sweep_reps(rng)]
        reps += [(f"q_rep-{n}", (n - 1) ** 2 + 1, inputs.q_rep_bands(n)) for n in (3, 4, 5)]
        rng.shuffle(reps)
        self.inputs = [
            (label, inputs.rep_doc(strands, bands), checks.surface_summary(strands, bands),
             len(checks.closure_cycles(strands, bands)))
            for label, strands, bands in reps
        ]

    def load(self):
        self.ops = [self._rep_op(*spec) for spec in self.inputs]
        self.warmup = [op for op in self.ops if op.stratum in ("q_rep-3", "q_rep-4")]

    @staticmethod
    def _rep_op(label, doc, want, link_components):
        rep = qp.BandRepresentation.from_json(doc)
        bands = doc["bands"]
        positive = all(sign == 1 for _, _, sign in bands)

        def run():
            surface = qp.BraidedSurface(rep)
            out = {
                "seifert": qp.alexander_from_seifert(qp.seifert_matrix(rep)).coefficient_list(),
                "burau": qp.alexander_from_braid(qp.beta(rep)).coefficient_list(),
                "summary": qp.summary(surface).components,
                "spine": qp.neighborhood_summary(qp.handle_spine(surface, range(1, len(bands) + 1))).components,
            }
            if positive:
                _, graph = qp.expand_bands(rep)
                out["full"] = qp.is_full(graph)
                out["expanded"] = qp.neighborhood_summary(graph).components
            return out

        def check(out):
            problems = checks.alexander_problems(out["seifert"], out["burau"], link_components)
            for key in ("summary", "spine", "expanded"):
                if key in out and sorted(list(c) for c in out[key]) != want:
                    problems.append(f"{key} summary {out[key]} != {want}")
            if positive and out["full"] is not True:
                problems.append("expand_bands graph is not full")
            return problems

        return Op(label, run, check)


WORKLOADS = {cls.name: cls for cls in (Fiber, Qpize, OracleSweep)}
