#!/usr/bin/env python3
"""Alternating benchmark pairs of a base checkout and this one, written to BENCH_<n>.json.

    python3 tools/bench_pairs.py --base ../parent --workload market_mix --pairs 10 --seed-from 4201

For each workload, pair i runs ``python3 BASE/bench/run.py`` and ``python3
bench/run.py`` with the same ``--seed`` (seed-from + i) and the run length
of ``BENCHMARK.json``, the base first in even pairs and this checkout first
in odd ones.  It refuses to run unless both ``bench/`` trees are
byte-identical, so that the two sides differ only in the program they
measure.

The file it writes, the next free ``BENCH_<n>.json`` at the root of this
checkout, holds every run's metrics and, per workload and end-to-end
metric of ``BENCHMARK.json``, each side's median, Q1 and Q3, the
change/base ratio of the medians, the pairs the change won (ties count
for neither side), and whether a gain claimed on the metric holds
(``claim_met``, see ``compare``).  It also records the machine, both
commits, and the SHA-256 of ``tools/pipeline_digests.py``'s output on
each side, which are equal exactly when both sides produce the same bytes
(``byte_identical``).  ``--workload`` may be repeated.  Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under root, byte-code caches left out."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file() and "__pycache__" not in path.parts}


def commit(checkout: Path) -> dict:
    """The checkout's HEAD commit and whether its tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def digests_sha256(checkout: Path) -> str:
    """SHA-256 of pipeline_digests.py's output with the checkout's src/."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "pipeline_digests.py"), "--repo", str(checkout)],
                          capture_output=True, check=False)
    if proc.returncode:
        raise SystemExit(f"pipeline_digests.py --repo {checkout} exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace"))
    return hashlib.sha256(proc.stdout).hexdigest()


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version()}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run: its final JSON line, with the wall time of the run."""
    argv = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"exit_code": proc.returncode, "wall_s": round(wall, 3), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the ratio of
    the medians, and the change's wins.  ``gain_exceeds_base_iqr``: the
    medians differ in the better direction by more than the base's Q3 - Q1.
    ``within_bound``: the change's median is worse than the base's by no more
    than the metric's bound, a fraction of the base's.  ``unresolved``: the
    base's Q3 - Q1 is wider than that bound, and the runs do not separate
    (some base run is as good as some change run).  ``claim_met``: the change
    won at least 9 in 10 of the pairs that were not ties, and its gain
    exceeds the base's Q3 - Q1."""
    out = {}
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base = [run["base"]["metrics"][name] for run in runs]
        change = [run["change"]["metrics"][name] for run in runs]
        b, c = summary(base), summary(change)
        gain = (c["median"] - b["median"]) if higher else (b["median"] - c["median"])
        wins = sum((y > x) if higher else (y < x) for x, y in zip(base, change))
        ties = sum(x == y for x, y in zip(base, change))
        separated = min(change) > max(base) if higher else max(change) < min(base)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": bound, "base": b, "change": c,
            "ratio": c["median"] / b["median"] if b["median"] else None,
            "wins": wins,
            "ties": ties,
            "pairs": len(runs),
            "gain_exceeds_base_iqr": gain > b["q3"] - b["q1"],
            "within_bound": -gain <= bound * abs(b["median"]),
            "unresolved": b["q3"] - b["q1"] > bound * abs(b["median"]) and not separated,
            "claim_met": wins >= 0.9 * (len(runs) - ties) and gain > b["q3"] - b["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the other checkout (e.g. the parent commit)")
    parser.add_argument("--workload", action="append", required=True, help="bench workload (repeatable)")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs per workload (at least 2)")
    parser.add_argument("--seed-from", type=int, required=True, help="seed of the first pair; pair i uses it + i")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    base = args.base.resolve()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    if tree_files(base / "bench") != tree_files(ROOT / "bench"):
        print(f"error: {base / 'bench'} and {ROOT / 'bench'} differ; both sides must run the same benchmark",
              file=sys.stderr)
        return 1

    sides = {"base": base, "change": ROOT}
    record = {
        "tool": "tools/bench_pairs.py",
        "machine": machine(),
        "seconds": seconds,
        "sides": {name: {**commit(path), "pipeline_digests_sha256": digests_sha256(path)}
                  for name, path in sides.items()},
        "workloads": {},
    }
    digests = {side["pipeline_digests_sha256"] for side in record["sides"].values()}
    record["byte_identical"] = len(digests) == 1
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_from + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            run = {"seed": seed, "first": order[0]}
            for name in order:
                run[name] = run_bench(sides[name], workload, seed, seconds)
            runs.append(run)
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): detect.traces_per_s "
                  f"base {run['base']['metrics']['detect.traces_per_s']:.0f}, "
                  f"change {run['change']['metrics']['detect.traces_per_s']:.0f}", flush=True)
        record["workloads"][workload] = {"summary": compare(runs, benchmark["end_to_end"]), "runs": runs}

    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    failed = [f"{w}: {side} pair seed {run['seed']}" for w, data in record["workloads"].items()
              for run in data["runs"] for side in sides
              if run[side]["exit_code"] or not run[side]["correct"] or run[side]["failed"]]
    for line in failed:
        print(f"a run failed a check: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
