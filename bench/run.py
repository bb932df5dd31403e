#!/usr/bin/env python3
"""hbarena benchmark: simulate -> detect --score -> report, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload market_mix --seed 1 --seconds 45 --trace 0

With ``--trace 0`` every command runs in its own child process, as a user runs
it, and the end-to-end metrics are printed.  With ``--trace 1`` the same CLI
round runs next to a traced run of each stage (``replay.py``: the CLI's own
code, in-process, with a span around every call into the package's layers),
and the per-layer metrics are printed.
Either way the outputs are checked (see ``checks.py``) and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program receives only a scenario file derived from a canned one and
``--seed``.  Everything the benchmark writes goes under ``.bench_work/`` in
the checkout; corpora are deleted before the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".bench_work"

# Set-up takes about 0.6 s and runs several times per run; its median is
# reported.  On a 2-vCPU host whose speed drifted from second to second, the
# median of 5 set-ups spread by 0.22 between runs, that of 9-15 by 0.10-0.14.
SETUP_REPEATS = 11
STARTUP_REPEATS = 5
# simulate writes the corpus and runs once a round.  The commands that only
# read it run twice, so that the short stages are timed for about as long
# as simulate and their medians are steadier.
READ_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    canned: str
    num_sites: int | None  # None keeps the canned generator size


# market_mix stays at the canned 5000 sites, so its facet quotas are the
# paper's 2400/1735/865.  mixed_sparse is scaled from 1000 to 5000 sites so
# that its report stages run for about a second each rather than the ~0.2 s
# that interpreter start-up would dominate.
WORKLOADS = {
    "market_mix": Workload("market_mix_5000.json", None),
    "mixed_sparse": Workload("mixed_corpus_1000.json", 5000),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "simulate.sites_per_s": "sites/s",
    "detect.traces_per_s": "traces/s",
    "report_truth.records_per_s": "records/s",
    "report_results.records_per_s": "records/s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot go on: a command failed or its input is missing."""


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Command:
    wall_s: float
    exit_code: int
    peak_rss_kb: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_dir: Path, stage: str, env: dict[str, str]) -> Command:
    """Run one child process to its end, timing it from spawn to reaping.

    ``wait4`` gives the child's peak resident set.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{stage}.out", log_dir / f"{stage}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(
        wall_s=wall,
        exit_code=proc.returncode,
        peak_rss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def hbarena_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "hbarena.cli", *args]


# --------------------------------------------------------------------------
# Set-up


@dataclass
class Setup:
    work: Path
    scenario_path: Path
    scenario: dict


def derive_scenario(workload: Workload, path: Path) -> dict:
    """Write the workload's scenario: the canned file without its own seed."""
    with open(SCENARIOS / workload.canned, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("master_seed", None)
    data.pop("output_dir", None)
    if workload.num_sites is not None:
        data["generator"]["num_sites"] = workload.num_sites
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return data


# Loads, expands and validates a scenario with the package's own code.
VALIDATE = (
    "import sys\n"
    "from hbarena.scenario import expand_sites, load_scenario_file, validate_scenario_file\n"
    "sf = load_scenario_file(sys.argv[1])\n"
    "report = validate_scenario_file(sf, expand_sites(sf, int(sys.argv[2])))\n"
    "print(*report.violations, sep='\\n')\n"
    "sys.exit(1 if report.violations else 0)\n"
)


def set_up(workload: Workload, seed: int, work: Path, env: dict[str, str]) -> Setup:
    """Everything before the first timed command.

    It clears the work directory, writes the scenario and has the package
    validate it for this seed.  That child also brings the interpreter and
    the package into the page cache.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario_path = work / "scenario.json"
    scenario = derive_scenario(workload, scenario_path)
    check = run_child([sys.executable, "-c", VALIDATE, str(scenario_path), str(seed)], work / "logs", "validate", env)
    if check.exit_code != 0:
        raise BenchError(f"scenario {workload.canned} is invalid for seed {seed}: {check.stdout.strip()} "
                         f"{check.stderr.strip()[-500:]}")
    return Setup(work, scenario_path, scenario)


# --------------------------------------------------------------------------
# One pipeline round through the CLI


class Tally:
    """Operations attempted and failed: CLI commands and detected traces."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def command(self, cmd: Command) -> Command:
        self.attempted += 1
        if cmd.exit_code != 0:
            self.failed += 1
        return cmd


def stage_args(setup: Setup, seed: int, out_dir: Path) -> dict[str, list[str]]:
    """The hbarena arguments of each stage of a round on ``out_dir``."""
    return {
        "simulate": ["simulate", "--scenario", str(setup.scenario_path), "--seed", str(seed), "--out", str(out_dir)],
        "detect": ["detect", str(out_dir), "--score"],
        "report_truth": ["report", str(out_dir / "outcomes.jsonl"), "--out", str(out_dir / "report_truth")],
        "report_results": ["report", str(out_dir / "results.jsonl"), "--out", str(out_dir / "report_results"),
                           "--manifest", str(out_dir / "manifest.json")],
    }


def cli_round(setup: Setup, seed: int, out_dir: Path, tally: Tally, env: dict[str, str]) -> dict[str, list[Command]]:
    """simulate, then READ_REPEATS x (detect --score, report on outcomes, report on results)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    logs = out_dir.parent / (out_dir.name + "-logs")
    args = stage_args(setup, seed, out_dir)
    readers = [(stage, args[stage]) for stage in ("detect", "report_truth", "report_results")]
    done: dict[str, list[Command]] = {}
    for i, (stage, argv) in enumerate([("simulate", args["simulate"])] + readers * READ_REPEATS):
        cmd = tally.command(run_child(hbarena_argv(*argv), logs, f"{i}-{stage}", env))
        if cmd.exit_code not in (0, 3):  # 3: detect finished with error rows
            raise BenchError(f"{stage} exited {cmd.exit_code}: {cmd.stderr.strip()[-500:]}")
        if stage == "detect":
            tally_traces(out_dir, tally)
        done.setdefault(stage, []).append(cmd)
    return done


def stage_walls(cmds: dict[str, list[Command]]) -> dict[str, float]:
    """Each stage's wall time in a round: the median over its repeats."""
    return {stage: statistics.median(c.wall_s for c in runs) for stage, runs in cmds.items()}


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def round_metrics(cmds: dict[str, list[Command]], out_dir: Path) -> dict[str, float]:
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        sites = json.load(fh)["site_count"]
    traces = sum(1 for n in os.listdir(out_dir) if n.endswith(".trace.jsonl"))
    wall = stage_walls(cmds)
    return {
        "pipeline_s": sum(wall.values()),
        "simulate.sites_per_s": sites / wall["simulate"],
        "detect.traces_per_s": traces / wall["detect"],
        "report_truth.records_per_s": count_lines(out_dir / "outcomes.jsonl") / wall["report_truth"],
        "report_results.records_per_s": count_lines(out_dir / "results.jsonl") / wall["report_results"],
        "peak_rss_mb": max(c.peak_rss_kb for runs in cmds.values() for c in runs) / 1024,
    }


def tally_traces(out_dir: Path, tally: Tally) -> None:
    with open(out_dir / "results.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                tally.attempted += 1
                tally.failed += int("error" in json.loads(line))


# --------------------------------------------------------------------------
# Modes


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def cli_rounds(setup: Setup, seed: int, seconds: float, tally: Tally, env, checks, errors: list[str]):
    """Whole CLI rounds for about ``seconds``; yields (number, commands, output dir).

    A new round starts only while at least half a round as long as the last
    is left, so a run overshoots ``seconds`` by at most half a round and a
    slow machine runs fewer rounds rather than a longer run.
    Round 1's output is kept for the full checks and every later round must
    reproduce it.  Corpora are deleted when the run ends, not between rounds,
    so that no round is timed while the file system retires the last one.
    """
    first = setup.work / "round1"
    start = time.perf_counter()
    n = 0
    while True:
        n += 1
        round_start = time.perf_counter()
        out_dir = first if n == 1 else setup.work / f"round{n}"
        cmds = cli_round(setup, seed, out_dir, tally, env)
        if n == 1:
            errors += checks.check_score_output(cmds["detect"][0].stdout)
        else:
            errors += checks.same_outputs(first, out_dir)
        yield n, cmds, out_dir
        now = time.perf_counter()
        if now + (now - round_start) / 2 > start + seconds:
            return


def timed_mode(setup: Setup, seed: int, seconds: float, tally: Tally, env, checks) -> tuple[dict, list[str]]:
    """End-to-end metrics: medians over the run's CLI rounds."""
    errors: list[str] = []
    rows = [round_metrics(cmds, out_dir)
            for _, cmds, out_dir in cli_rounds(setup, seed, seconds, tally, env, checks, errors)]
    errors += checks.check_corpus(setup.work / "round1", setup.scenario, seed)
    metrics = median_by_key(rows)
    metrics["rounds"] = len(rows)
    return metrics, errors


def replay_round(out_dir: Path, setup: Setup, seed: int, env: dict[str, str]) -> tuple[dict[str, Command], list[dict]]:
    """The traced run of one round: each stage in its own interpreter."""
    shutil.rmtree(out_dir, ignore_errors=True)
    logs = out_dir.parent / (out_dir.name + "-logs")
    cmds, stages = {}, []
    for stage, args in stage_args(setup, seed, out_dir).items():
        spans_path = logs / f"{stage}.spans.json"
        cmd = run_child([sys.executable, str(BENCH / "replay.py"), "--stage", stage, "--spans", str(spans_path),
                         "--", *args], logs, f"replay-{stage}", env)
        if cmd.exit_code != 0:
            raise BenchError(f"traced {stage} exited {cmd.exit_code}: {cmd.stderr.strip()[-500:]}")
        cmds[stage] = cmd
        with open(spans_path, "r", encoding="utf-8") as fh:
            stages.append({"stage": stage, **json.load(fh)})
    return cmds, stages


def write_spans(rounds: list[list[dict]], path: Path) -> None:
    """One JSON line per span; ``span`` and ``parent`` index the spans of one stage."""
    with open(path, "w", encoding="utf-8") as fh:
        for round_no, stages in enumerate(rounds, start=1):
            for stage in stages:
                for index, (name, parent, start, end) in enumerate(stage["spans"]):
                    fh.write(json.dumps({"round": round_no, "stage": stage["stage"], "span": index,
                                         "parent": parent, "name": name, "start_ns": start, "end_ns": end},
                                        separators=(",", ":")) + "\n")


def trace_mode(setup: Setup, seed: int, seconds: float, tally: Tally, env, checks) -> tuple[dict, list[str]]:
    """Untraced CLI rounds next to traced runs of each stage, then one pooled simulate."""
    import replay

    errors: list[str] = []
    startup = []
    for i in range(STARTUP_REPEATS):
        cmd = run_child([sys.executable, "-c", "import hbarena.cli"], setup.work / "logs", f"startup{i}", env)
        if cmd.exit_code != 0:
            raise BenchError(f"importing hbarena.cli failed: {cmd.stderr.strip()}")
        startup.append(cmd.wall_s)

    layer_rows, serial_sim, rounds = [], [], []
    for n, cmds, _ in cli_rounds(setup, seed, seconds, tally, env, checks, errors):
        serial_sim.append(cmds["simulate"][0].wall_s)
        traced, stages = replay_round(setup.work / f"traced{n}", setup, seed, env)
        layers = replay.layer_metrics(stages)
        layers["trace.untraced_s"] = sum(stage_walls(cmds).values())
        layers["trace.traced_s"] = sum(c.wall_s for c in traced.values())
        layers["trace.overhead_ratio"] = layers["trace.traced_s"] / layers["trace.untraced_s"]
        layer_rows.append(layers)
        rounds.append(stages)

    first = setup.work / "round1"
    pool_jobs = len(os.sched_getaffinity(0))
    pool_dir = setup.work / "pool"
    argv = hbarena_argv(*stage_args(setup, seed, pool_dir)["simulate"], "--jobs", str(pool_jobs))
    cmd = tally.command(run_child(argv, setup.work / "logs", "pool", env))
    if cmd.exit_code != 0:
        raise BenchError(f"simulate --jobs {pool_jobs} exited {cmd.exit_code}")
    errors += checks.same_manifest_files(first, pool_dir)
    errors += checks.check_corpus(first, setup.scenario, seed)

    metrics = median_by_key(layer_rows)
    metrics["trace.recording_s"] = metrics["trace.spans"] * replay.per_span_cost_s()
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.pool_serial_s"] = statistics.median(serial_sim)
    metrics["cli.pool_parallel_s"] = cmd.wall_s
    metrics["cli.pool_speedup"] = metrics["cli.pool_serial_s"] / cmd.wall_s
    write_spans(rounds, WORK / f"{setup.work.name}.spans.jsonl")
    return metrics, errors


# --------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="corpus seed, passed to simulate --seed")
    parser.add_argument("--seconds", type=float, default=45.0, help="run length; whole rounds run until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics from CLI children; 1: per-layer metrics from a traced replay")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_speedup"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "hbarena" / "cli.py", SCENARIOS) if not p.exists()]
    if missing:
        print(f"error: {', '.join(str(p) for p in missing)} not found; run from an hbarena checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    env = child_env()
    tally = Tally()
    try:
        durations = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            setup = set_up(workload, args.seed, work, env)
            durations.append(time.perf_counter() - start)
        mode = trace_mode if args.trace else timed_mode
        measured, errors = mode(setup, args.seed, args.seconds, tally, env, checks)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_units(name)} for name, value in sorted(measured.items())}
    else:
        measured["setup_s"] = statistics.median(durations)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"rounds: {measured['rounds']}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({"correct": not errors, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
