#!/usr/bin/env python3
"""Digest every artifact of the whole pipeline, to prove a change byte-identical.

For each scenario (by default the seven canned ones under ``scenarios/``) it
runs, in a temporary directory:

    simulate --scenario S --out NAME
    detect NAME --score
    report NAME/outcomes.jsonl --out NAME/report_truth
    report NAME/outcomes.jsonl --out NAME/report_truth_nonzero --no-include-zero-bid-auctions
    report NAME/results.jsonl --out NAME/report_results --manifest NAME/manifest.json
    report NAME/results.jsonl --out NAME/report_results_nonzero --manifest NAME/manifest.json
           --no-include-zero-bid-auctions

and prints each command's exit code and stdout, then one ``NAME/path sha256``
line per file the commands wrote.  Commands run with relative paths, so the
output does not depend on where the temporary directory is.  Two runs agree
exactly when the two checkouts produce the same bytes:

    python3 tools/pipeline_digests.py > change.txt
    python3 tools/pipeline_digests.py --repo ../parent > parent.txt
    diff parent.txt change.txt

``--repo`` runs another checkout's ``src`` (which need not have this tool)
on this checkout's scenarios.  ``--scenario`` and ``--seed`` pick other
inputs.  ``--simulate-jobs N`` and ``--detect-jobs N`` run ``simulate`` and
``detect`` with ``--jobs N``; the printed commands leave the option out, so
that the output of any N can be compared with the default's.

Each command runs in a session of its own.  If any process of that session
is still alive when the command has exited, the tool prints a ``FAILED:``
line naming it after the scenario's lines and exits 1; otherwise its output
is as above.  Standard library only; the session check reads ``/proc``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(name: str, scenario: Path, seed: int | None) -> list[list[str]]:
    simulate = ["simulate", "--scenario", str(scenario), "--out", name]
    if seed is not None:
        simulate += ["--seed", str(seed)]
    results = ["--manifest", f"{name}/manifest.json"]
    return [
        simulate,
        ["detect", name, "--score"],
        ["report", f"{name}/outcomes.jsonl", "--out", f"{name}/report_truth"],
        ["report", f"{name}/outcomes.jsonl", "--out", f"{name}/report_truth_nonzero",
         "--no-include-zero-bid-auctions"],
        ["report", f"{name}/results.jsonl", "--out", f"{name}/report_results", *results],
        ["report", f"{name}/results.jsonl", "--out", f"{name}/report_results_nonzero", *results,
         "--no-include-zero-bid-auctions"],
    ]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def session_members(sid: int) -> list[int]:
    """The pids of the processes in session ``sid``, read from /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError):
            continue  # it has just ended
        # The fields after the parenthesized command name: state ppid pgrp session ...
        if int(stat[stat.rindex(b")") + 2:].split()[3]) == sid:
            pids.append(int(entry))
    return pids


def run_scenario(scenario: Path, seed: int | None, work: Path, env: dict[str, str],
                 jobs: dict[str, int]) -> tuple[list[str], list[str]]:
    """Run the commands; ``jobs`` maps a command to the N of its --jobs N.
    Returns the output lines and a failure line per command that left a
    process of its session alive."""
    name = scenario.stem
    lines, failures = [], []
    for argv in commands(name, scenario, seed):
        n = jobs.get(argv[0], 1)
        extra = ["--jobs", str(n)] if n != 1 else []
        with subprocess.Popen([sys.executable, "-m", "hbarena.cli", *argv, *extra], cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            stdout, _ = proc.communicate()
        shown = [scenario.name if arg == str(scenario) else arg for arg in argv]
        lines.append(f"$ hbarena {' '.join(shown)} -> exit {proc.returncode}")
        lines.extend(f"  {line}" for line in stdout.splitlines())
        left = session_members(proc.pid)
        if left:
            failures.append(f"FAILED: hbarena {' '.join(shown)} left process(es) {left} running")
    out = work / name
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{path.relative_to(work).as_posix()} {sha256(path)}")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--scenario", type=Path, action="append",
                        help="scenario file (repeatable; default: every scenarios/*.json)")
    parser.add_argument("--seed", type=int, default=None, help="master seed for every scenario")
    parser.add_argument("--simulate-jobs", type=int, default=1,
                        help="simulate --jobs N (default 1: no option passed)")
    parser.add_argument("--detect-jobs", type=int, default=1, help="detect --jobs N (default 1: no option passed)")
    args = parser.parse_args(argv)
    scenarios = [p.resolve() for p in args.scenario] if args.scenario else sorted((ROOT / "scenarios").glob("*.json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str((args.repo / "src").resolve())
    jobs = {"simulate": args.simulate_jobs, "detect": args.detect_jobs}
    failed = False
    with tempfile.TemporaryDirectory(prefix="hbarena-digests-") as tmp:
        for scenario in scenarios:
            lines, failures = run_scenario(scenario, args.seed, Path(tmp), env, jobs)
            print("\n".join(lines + failures), flush=True)
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
