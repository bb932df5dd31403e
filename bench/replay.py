"""Traced run of one CLI stage, for per-layer metrics.

Each stage runs ``hbarena.cli.main`` in-process, in a fresh interpreter, with
the package functions the CLI calls wrapped so that every call records a span:

    python3 bench/replay.py --stage simulate --spans FILE -- simulate --scenario S --seed N --out D
    python3 bench/replay.py --stage detect --spans FILE -- detect D --score
    python3 bench/replay.py --stage report_truth --spans FILE -- report D/outcomes.jsonl --out R

The wrappers replace the names ``hbarena.cli`` imported from the other
modules, and ``hbarena.tracegen.parse_trace_text``, which ``parse_trace_file``
calls.  The work done is the CLI's own, so the output is the CLI's by
construction.  Only ``--jobs 1`` is traced: a process pool's workers would
record their spans in other interpreters.

Spans are kept in memory as ``[name, parent index, start ns, end ns]`` and
written out once, when the stage ends.  A layer's time is the sum of its
spans; a stage's ``other`` time is the stage span minus its child spans
(argument parsing, JSON encoding, file writes, hashing, directory listing,
scoring).  ``tracegen.parse_file`` wraps ``parse_trace_file`` and has one
child, ``tracegen.parse_text``; the difference is the file open, read and
decode (``tracegen.read_s``).

The counts of files and bytes a stage wrote are taken from its output
directory after the stage, outside every span.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import hbarena.cli as cli
import hbarena.tracegen as tracegen
from hbarena.analytics import REPORT_NAMES

STAGES = ("simulate", "detect", "report_truth", "report_results")


class Tracer:
    """In-memory span recorder for one stage."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, counted=None):
        """``fn`` with a span around each call; ``counted(result)`` runs after the span."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counted is not None:
                counted(result)
            return result

        return traced


def instrument(tracer: Tracer, stage: str) -> list:
    """Wrap the CLI's imported names; returns the records each report loads."""
    loaded: list = []
    build_report = cli.build_report
    wrappers = {
        "load_scenario_file": tracer.wrap("scenario.load", cli.load_scenario_file),
        "expand_sites": tracer.wrap("scenario.expand", cli.expand_sites),
        "validate_scenario_file": tracer.wrap("scenario.validate", cli.validate_scenario_file),
        "run_scenario": tracer.wrap("auction.run_scenario", cli.run_scenario,
                                    lambda _: tracer.count("auction.rounds")),
        "emit_trace": tracer.wrap("tracegen.emit", cli.emit_trace,
                                  lambda trace: tracer.count("tracegen.events", len(trace.events))),
        "serialize_trace": tracer.wrap("tracegen.serialize", cli.serialize_trace),
        "truth_record": tracer.wrap("tracegen.truth", cli.truth_record),
        "outcome_row": tracer.wrap("cli.outcome_row", cli.outcome_row),
        "parse_trace_file": tracer.wrap("tracegen.parse_file", cli.parse_trace_file),
        "extract_auction_metadata": tracer.wrap("detector.extract", cli.extract_auction_metadata,
                                                lambda r: tracer.count("detector.hb_traces", int(r.is_hb))),
        "result_row": tracer.wrap("detector.result_row", cli.result_row),
        "load_records": tracer.wrap("analytics." + ("load_truth" if stage == "report_truth" else "load_results"),
                                    cli.load_records, loaded.append),
        "build_report": lambda name, *rest: tracer.call(f"analytics.build.{name}", build_report, name, *rest),
        "write_report_csv": tracer.wrap("analytics.write", cli.write_report_csv),
        "write_report_json": tracer.wrap("analytics.write", cli.write_report_json),
    }
    for name, wrapper in wrappers.items():
        setattr(cli, name, wrapper)
    tracegen.parse_trace_text = tracer.wrap("tracegen.parse_text", tracegen.parse_trace_text)
    return loaded


def output_dir(argv: list[str]) -> str:
    """The directory a CLI command writes into."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "detect":
        return os.path.dirname(args.out) if args.out else args.trace_dir
    return args.out


def snapshot(path: str) -> dict[str, tuple[int, int]]:
    """Every file under ``path``: relative name -> (size, mtime in ns)."""
    files = {}
    for top, _, names in os.walk(path):
        for name in names:
            st = os.stat(os.path.join(top, name))
            files[os.path.relpath(os.path.join(top, name), path)] = (st.st_size, st.st_mtime_ns)
    return files


def count_written(tracer: Tracer, before: dict, after: dict) -> None:
    written = [name for name, stat in after.items() if before.get(name) != stat]
    tracer.count("cli.files_written", len(written))
    tracer.count("cli.bytes_written", sum(after[name][0] for name in written))
    traces = [after[name][0] for name in written if name.endswith(".trace.jsonl")]
    if traces:
        tracer.count("tracegen.trace_bytes", sum(traces))


# Per-layer metric -> span whose total time it is.
SPAN_TOTALS = {
    "scenario.load_s": "scenario.load",
    "scenario.expand_s": "scenario.expand",
    "scenario.validate_s": "scenario.validate",
    "auction.run_scenario_s": "auction.run_scenario",
    "tracegen.emit_s": "tracegen.emit",
    "tracegen.serialize_s": "tracegen.serialize",
    "tracegen.truth_s": "tracegen.truth",
    "tracegen.parse_s": "tracegen.parse_text",
    "detector.extract_s": "detector.extract",
    "detector.result_row_s": "detector.result_row",
    "cli.outcome_row_s": "cli.outcome_row",
    "analytics.load_truth_s": "analytics.load_truth",
    "analytics.load_results_s": "analytics.load_results",
    "analytics.write_s": "analytics.write",
    **{f"analytics.build.{name}_s": f"analytics.build.{name}" for name in REPORT_NAMES},
}
# Per-layer metric -> spans whose self time (minus child spans) it is.
SPAN_SELF = {
    "tracegen.read_s": ("tracegen.parse_file",),
    "cli.simulate_other_s": ("stage.simulate",),
    "cli.detect_other_s": ("stage.detect",),
    "cli.report_other_s": ("stage.report_truth", "stage.report_results"),
}
COUNTS = ("auction.rounds", "tracegen.events", "tracegen.trace_bytes", "detector.hb_traces",
          "cli.files_written", "cli.bytes_written", "analytics.records", "analytics.bids")


def layer_metrics(stages: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round from its stages' saved spans and counts."""
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    for stage in stages:
        spans = stage["spans"]
        for name, parent, start, end in spans:
            total[name] = total.get(name, 0) + (end - start)
            self_ns[name] = self_ns.get(name, 0) + (end - start)
            if parent >= 0:
                self_ns[spans[parent][0]] -= end - start
        for name, n in stage["counts"].items():
            counts[name] = counts.get(name, 0) + n
    metrics = {metric: total.get(span, 0) / 1e9 for metric, span in SPAN_TOTALS.items()}
    metrics.update({metric: sum(self_ns.get(s, 0) for s in spans) / 1e9 for metric, spans in SPAN_SELF.items()})
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    metrics["trace.spans"] = sum(len(stage["spans"]) for stage in stages)
    return metrics


def per_span_cost_s(n: int = 20000) -> float:
    """Added time of recording one span: a traced no-op call minus a direct one."""
    tracer = Tracer()

    def noop():
        return None

    start = time.perf_counter()
    for _ in range(n):
        noop()
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        tracer.call("noop", noop)
    traced = time.perf_counter() - start
    return max(traced - direct, 0.0) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one CLI stage in-process with spans.")
    parser.add_argument("--stage", required=True, choices=STAGES)
    parser.add_argument("--spans", required=True, help="JSON file the spans and counts are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- followed by the hbarena arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    out = output_dir(cli_argv)
    before = snapshot(out)
    tracer = Tracer()
    loaded = instrument(tracer, args.stage)
    code = tracer.call(f"stage.{args.stage}", cli.main, cli_argv)
    count_written(tracer, before, snapshot(out))
    for records in loaded:
        tracer.count("analytics.records", len(records))
        tracer.count("analytics.bids", sum(len(rec.bids) for rec in records))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
