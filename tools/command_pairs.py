#!/usr/bin/env python3
"""Alternating timed pairs of one hbarena command on two checkouts' src/.

    python3 tools/command_pairs.py --base ../parent --pairs 10 -- \\
        simulate --scenario scenarios/market_mix_5000.json --seed 4242 --out /tmp/pairs/{run}

Every run is ``python3 -m hbarena.cli ARGS`` in the current directory, with
``PYTHONPATH`` set to one side's ``src/``: that of ``--base``, or that of
``--change`` (default: this checkout).  Each side first runs once, untimed,
so that no timed run pays for cold caches; then pair i runs the base first
when i is even and the change first when it is odd.  Each ``{run}`` in ARGS
becomes the run's own name (``base-warmup``, ``base-0``, ``change-0``,
...), so that every run can write to paths of its own.

Each child is timed with ``os.wait4``: wall time, user and system CPU, and
peak RSS, which on Linux also counts this tool's own size when it forked
the child (about 10 MiB).  For each of the four, lower is better; the tool
prints each side's median, Q1 and Q3, the change/base ratio of the medians,
the pairs the change won (ties count for neither side) and whether a gain
would be claimed, by ``summary`` and ``claim_met`` of
``tools/bench_pairs.py``.

It exits 1 if in some pair the two sides' exit codes differ, or their
stdout does once each run's name is put back as ``{run}``, and prints the
first such pair's output.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import claim_met, summary  # noqa: E402

MEASURES = ("wall_s", "user_s", "sys_s", "peak_rss_mib")


def run(checkout: Path, args: list[str], name: str) -> dict:
    """One run of ``hbarena ARGS`` on ``checkout``'s src/, ``{run}`` in ARGS
    and ``name`` in its output both standing for ``name``."""
    argv = [sys.executable, "-m", "hbarena.cli", *(arg.replace("{run}", name) for arg in args)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        stdout, stderr = (fh.read().decode("utf-8", "replace").replace(name, "{run}") for fh in (out, err))
    return {"exit_code": proc.returncode, "stdout": stdout, "stderr": stderr, "wall_s": wall,
            "user_s": usage.ru_utime, "sys_s": usage.ru_stime, "peak_rss_mib": usage.ru_maxrss / 1024}


def report(pairs: list[dict]) -> list[str]:
    """One line per measure: each side's median [Q1, Q3], the ratio, the
    change's wins and ``claim_met``."""
    lines = []
    for measure in MEASURES:
        base = [pair["base"][measure] for pair in pairs]
        change = [pair["change"][measure] for pair in pairs]
        b, c = summary(base), summary(change)
        wins = sum(y < x for x, y in zip(base, change))
        ties = sum(x == y for x, y in zip(base, change))
        claimed = claim_met(wins, ties, len(pairs), b["median"] - c["median"], b)
        ratio = f"{c['median'] / b['median']:.3f}" if b["median"] else "n/a"
        lines.append(f"{measure}: base {b['median']:.3f} [{b['q1']:.3f}, {b['q3']:.3f}], "
                     f"change {c['median']:.3f} [{c['q1']:.3f}, {c['q3']:.3f}], "
                     f"ratio {ratio}, change won {wins} of {len(pairs)}, "
                     f"claim_met {str(claimed).lower()}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    own, command = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s --base DIR [--change DIR] --pairs N -- HBARENA_ARGS...")
    parser.add_argument("--base", type=Path, required=True, help="the other checkout (e.g. the parent commit)")
    parser.add_argument("--change", type=Path, default=ROOT, help="the checkout measured (default: this one)")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs (at least 2)")
    args = parser.parse_args(own)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if not command:
        parser.error("give the hbarena arguments after --")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    print(f"$ hbarena {' '.join(command)}", flush=True)
    for side, checkout in sides.items():
        run(checkout, command, f"{side}-warmup")
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {side: run(sides[side], command, f"{side}-{i}") for side in order}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): wall base {pair['base']['wall_s']:.3f} s, "
              f"change {pair['change']['wall_s']:.3f} s", flush=True)
        if len({(result["exit_code"], result["stdout"]) for result in pair.values()}) > 1:
            for side in sides:
                print(f"{side} exited {pair[side]['exit_code']}; stdout:\n{pair[side]['stdout']}"
                      f"stderr:\n{pair[side]['stderr']}", file=sys.stderr)
            print(f"error: in pair {i + 1} the two sides' exit codes or stdout differ", file=sys.stderr)
            return 1
    print(f"the two sides' exit codes and stdout agreed in all {len(pairs)} pairs")
    print("\n".join(report(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
