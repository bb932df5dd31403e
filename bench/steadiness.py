#!/usr/bin/env python3
"""Does the benchmark repeat?  Two separate sets of runs of the same code.

Run from the repository root:

    python3 bench/steadiness.py                      # every workload, 2 sets x 10 runs
    python3 bench/steadiness.py --workloads market_mix --runs 5 --sets 1

Each set runs ``bench/run.py --trace 0`` once per seed on every workload, with
the run length from ``BENCHMARK.json``; the second set starts after the first
has finished, on fresh seeds.  For every end-to-end metric it prints each set's
median and its spread (the distance between the first and third quartiles,
``statistics.quantiles(values, n=4)``, as a share of the median), and the gap
between the two medians in the metric's worse direction.  The share of failed
operations must be identical in both sets.

It exits 1 if any spread or any gap exceeds the metric's bound, or if the
failed shares differ.  Every run's result line is
kept in ``.bench_work/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {proc.stderr.strip()[-800:]}")
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated workload names")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=3001)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 2 or any(w not in names for w in workloads):
        parser.error(f"--runs must be at least 2 and workloads among {names}")

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for set_no in range(args.sets):
        for workload in workloads:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"set {set_no + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
                seed += 1
            results[workload].append(runs)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "steadiness.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    ok = True
    print(f"\n{'workload':16s} {'metric':30s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'gap':>7s} {'bound':>6s}")
    for workload, sets in results.items():
        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets}
        if len(shares) > 1:
            ok = False
            print(f"{workload}: failed shares differ between sets: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            cells = [f"{m:12.5g} {s:9.4f}" for m, s in zip(medians, spreads)]
            gap = float("nan")
            if len(sets) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                gap = change if metric["better"] == "lower" else -change
            bad = any(s > bound for s in spreads) or gap > bound
            ok = ok and not bad
            print(f"{workload:16s} {name:30s} {'  '.join(cells):{2 * 22 + 2}s} {gap:7.4f} {bound:6.3f}"
                  + ("  OVER BOUND" if bad else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
