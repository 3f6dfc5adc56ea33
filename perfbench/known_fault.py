#!/usr/bin/env python3
"""Reproduce the fault left out of the qpize workload for its cost.

    python3 perfbench/known_fault.py --seed 1

Marks every fine 1-handle of S(q_5), grows the spine to 150 arcs by inverse
Whitehead moves (so the graph is full), and runs `qpfiber quasipositize` on
it.  The simple-cycle enumeration behind `is_full` gives up with
CycleEnumerationBudgetExceeded on this full graph.  The script exits with
the CLI's exit code: 2 when the fault shows, 0 when the graph passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARCS = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    from qpfiber import cli

    bands, _, disks = inputs.grown_graph(random.Random(args.seed), 5, 16, 0, ARCS)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="known-fault-", dir=ROOT / ".bench_build") as workdir:
        path = Path(workdir) / "all-handles-q5.json"
        path.write_text(json.dumps(inputs.graph_doc(bands, disks)))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["quasipositize", "--n", "5", "--input", str(path)])
        elapsed = time.perf_counter() - start
    report = json.loads(out.getvalue())
    detail = f"{report['kind']}: {report['error']}" if code else "ok"
    print(f"exit {code} after {elapsed:.1f} s: {detail}")
    return code


if __name__ == "__main__":
    sys.exit(main())
