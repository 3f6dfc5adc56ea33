#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds and summarise.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 fiber qpize oracle-sweep
    python3 perfbench/steady.py --seeds 1-3 --repeat 4 oracle-sweep

Each run is a separate `run.py` process, one after another.  A set runs
every seed of `--seeds` once, or `--repeat` times in a row.  For every
end-to-end metric of a set the script prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median.  Over seeds, the
spread holds both the machine's noise and the seeds' different inputs.
With `--repeat`, the script also prints each seed's own spread over its
repeats, which holds the machine's noise alone.  With `--sets 2` or more it
prints how far each later set's median lies from the first set's, as a
share of the first.  The bounds in BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workload: str, seeds: list[int], repeat: int, seconds: int) -> list[tuple[int, dict]]:
    runs = []
    for seed in seeds:
        for _ in range(repeat):
            runs.append((seed, one_run(workload, seed, seconds)))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1][1]["metrics"].items()), flush=True)
    return runs


def report_set(workload: str, runs: list[tuple[int, dict]], bounds: dict, repeat: int) -> dict:
    results = [r for _, r in runs]
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"(failed, attempted) {shares}")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        medians[name] = statistics.median(values)
        bound = bounds.get(name, float("nan"))
        flag = "" if spread(values) < bound / 3 else "  above a third of the bound"
        print(f"  {name:14s} {medians[name]:12.5g} {q1:12.5g} {q3:12.5g} {spread(values):8.3f} {bound:6.2f}{flag}")
    if repeat > 1:
        print("  spread of each seed over its repeats (machine noise alone):")
        for seed in sorted({s for s, _ in runs}):
            own = [r for s, r in runs if s == seed]
            print(f"    seed {seed}: " + ", ".join(
                f"{name}={spread([r['metrics'][name]['value'] for r in own]):.3f}" for name in medians))
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=["fiber", "qpize", "oracle-sweep"])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each seed in a row")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, one after another")
    parser.add_argument("--seconds", type=int, help="run length; default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]
    for workload in args.workloads:
        first = None
        for number in range(1, args.sets + 1):
            print(f"== {workload}, set {number}", flush=True)
            runs = run_set(workload, seed_list(args.seeds), args.repeat, seconds)
            medians = report_set(workload, runs, bounds, args.repeat)
            if first is None:
                first = medians
                continue
            print(f"  median of set {number} against set 1 (share of set 1; above 0 is larger):")
            print("    " + ", ".join(f"{name}={medians[name] / first[name] - 1:+.3f}" for name in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
