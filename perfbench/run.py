#!/usr/bin/env python3
"""qpfiber benchmark: one seeded workload, timed untraced, optionally traced.

    python3 perfbench/run.py --workload fiber --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src.  The
workload's inputs are generated once, untimed.  Its set-up (a fresh
interpreter's imports, loading the inputs, warm-up) is then timed
SETUP_REPEATS times.  The untraced pass then runs whole
rounds of the workload's operations, one at a time, until the next round
would end after --seconds.  Every time is taken against the reference
kernel of pace.py, run between operations and, in untraced rounds, during
them, and is reported at the kernel's nominal speed; the timing metrics use
each operation's median over the rounds.  With --trace 1 each
untraced round is followed by a traced one, with spans around qpfiber's
public functions (see spans.py), and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fiber", "qpize", "oracle-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Pass:
    """Per-operation times and failures of the rounds run so far."""

    def __init__(self):
        # [stratum, seconds, seconds at the reference speed]; Clock fills in the times
        self.times: list[list] = []
        self.failed = 0
        self.wrong = 0

    @property
    def busy(self) -> float:
        return sum(t for _, t, _ in self.times)

    @property
    def paced(self) -> float:
        return sum(t for _, _, t in self.times)


class Clock:
    """Times operations at the reference speed of pace.py.

    The kernel's bracket runs before the first operation and then after
    operations worth at least GAP seconds; an operation's times are worked
    out once the bracket after it has run.
    """

    GAP = 0.15

    def __init__(self, pace_: pace.Pace):
        self.pace = pace_
        self.pace.bracket()
        self.pending: list[tuple[list, float, float]] = []
        self.since = 0.0

    def record(self, result: Pass, stratum: str, start: float, end: float) -> None:
        result.times.append([stratum, None, None])
        self.pending.append((result.times[-1], start, end))
        self.since += end - start
        if self.since >= self.GAP:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        self.pace.bracket()
        for entry, start, end in self.pending:
            entry[1:] = self.pace.scale(start, end)
        self.pending, self.since = [], 0.0


def run_ops(ops, result: Pass, clock: Clock, log) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # an operation's failure is counted; the run goes on
            clock.record(result, op.stratum, start, time.perf_counter())
            result.failed += 1
            log(f"{op.stratum}: {type(exc).__name__}: {exc}")
            continue
        clock.record(result, op.stratum, start, time.perf_counter())
        problems = op.check(outcome)
        if problems:
            result.failed += 1
            result.wrong += 1
            log(f"{op.stratum}: " + "; ".join(map(str, problems[:3])))
    clock.close()


def run_rounds(one_round, seconds: float) -> int:
    """Call `one_round` until the next call would end after `seconds`; at least once."""
    started = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            return rounds


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as the smallest sample with at least a share q at or below it."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def median_times(ops, timed: Pass) -> list[tuple[str, float]]:
    """Each operation of the round with its median time, at the reference speed, over the rounds.

    Every round appends one time per operation, in the round's order.
    """
    n = len(ops)
    return [(op.stratum, statistics.median(t for _, _, t in timed.times[i::n])) for i, op in enumerate(ops)]


def end_to_end(workload, timed: Pass, setup_s: float) -> dict:
    times = median_times(workload.ops, timed)
    durations = [t for _, t in times]
    per_stratum: dict[str, list[float]] = {}
    for stratum, t in times:
        per_stratum.setdefault(stratum, []).append(t)
    largest = [statistics.fmean(per_stratum[s]) for s in workload.largest]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "op/s"),
        "op_p50_ms": (1000 * statistics.median(durations), "ms"),
        "op_p90_ms": (1000 * nearest_rank(durations, 0.9), "ms"),
        "largest_op_s": (statistics.fmean(largest), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def import_fresh() -> None:
    """Start a fresh interpreter that imports the package and the workloads."""
    code = f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; import layers, workloads"
    subprocess.run([sys.executable, "-c", code], check=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qpfiber" / "__init__.py").is_file():
        print(f"perfbench: no qpfiber sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    def log(message):
        print(f"perfbench: {message}", file=sys.stderr)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        workload.generate()
        paced = pace.Pace()
        setups = []
        for _ in range(SETUP_REPEATS):
            paced.bracket()
            start = time.perf_counter()
            import_fresh()
            workload.load()
            for op in workload.warmup:  # the timed rounds count and report failures
                with contextlib.suppress(Exception):
                    op.run()
            end = time.perf_counter()
            paced.bracket()
            setups.append(paced.scale(start, end)[1])
        setup_s = statistics.median(setups)

        absent: list[str] = []
        if not args.trace:
            timed = Pass()
            with paced.sampling():
                clock = Clock(paced)
                rounds = run_rounds(lambda: run_ops(workload.ops, timed, clock, log), args.seconds)
            passes = [timed]
            metrics = end_to_end(workload, timed, setup_s)
        else:
            # Untraced and traced rounds alternate, so that the tracing
            # overhead is measured under the same machine load.
            # The kernel is not sampled during traced rounds, so that spans
            # hold no time of its signal handler.
            plain, traced, clock = Pass(), Pass(), Clock(paced)
            tracer = layers.tracer()
            traced_bytes = 0

            def pair():
                nonlocal traced_bytes
                run_ops(workload.ops, plain, clock, log)
                before = workload.stdout_bytes
                with tracer:
                    run_ops(workload.ops, traced, clock, log)
                traced_bytes += workload.stdout_bytes - before

            rounds = run_rounds(pair, args.seconds)
            passes = [plain, traced]
            metrics, absent = layers.per_layer(
                tracer,
                traced_s=traced.busy,
                overhead_s=traced.paced - plain.paced,
                stdout_bytes=traced_bytes,
            )

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    kind = "untraced and traced rounds" if args.trace else "rounds"
    print(f"workload {args.workload}, seed {args.seed}: {rounds} {kind} of {len(workload.ops)} ops, "
          f"{attempted} attempted, {failed} failed")
    if args.trace:
        print(f"  operation time: {plain.busy:.3f} s untraced, {traced.busy:.3f} s traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    if absent:
        print(f"  absent (traced function missing): {', '.join(absent)}")
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
