"""Command-line pipeline: simulate a scenario corpus, detect over the traces,
and aggregate reports, fully reproducible from one master seed.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error,
3 detection completed but some traces could not be read or parsed.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import functools
import hashlib
import json
import os
import sys
from decimal import Decimal
from typing import Iterator

from . import __version__
from .analytics import REPORT_NAMES, build_report, load_records, write_report_csv, write_report_json
from .auction import run_scenario
from .detector import extract_auction_metadata, result_row
from .domain import (HB_FACETS, ConfigurationError, PartnerDirectory, TraceParseError, builtin_directory,
                     decimal_str, indented_json, read_json_file, read_json_lines)
from .scenario import expand_sites, load_scenario_file, validate_scenario_file
from .tracegen import (
    emit_trace,
    file_label,
    outcome_row,
    parse_trace_file,
    serialize_trace,
    trace_filename,
    trace_key,
    truth_filename,
    truth_record,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARSE_ERRORS = 3

ENV_SEED = "HBARENA_SEED"
_CORPUS_SUFFIXES = (".trace.jsonl", ".truth.jsonl")

# Tasks per pool submission, and chunks submitted per worker ahead of the
# caller.  Finished chunks wait for the caller; simulate's hold trace and
# truth texts and outcome rows, about 100 KB a chunk on market_mix.  With one
# chunk ahead per worker, workers idled on round trips: detect --jobs 2 took
# 1.7x as long.
_CHUNK = 16
_AHEAD = 4

# json.dumps with separators makes a new encoder per call; rows share this one.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _write(path, chunks) -> str:
    """Write each text chunk as UTF-8, one at a time rather than as one
    joined copy; returns the "sha256:" digest of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return "sha256:" + digest.hexdigest()


def _run_chunk(fn, tasks: list) -> list:
    return [fn(task) for task in tasks]


def _map_ordered(fn, tasks: list, jobs: int, initializer=None, initargs=()) -> Iterator:
    """Yields fn(task) for each task, in task order, as the results come in;
    on up to ``jobs`` worker processes but never more than there are tasks,
    and one task or job runs in this process.  Each worker first runs
    ``initializer(*initargs)``.  Tasks go out in chunks, a few per worker
    ahead of the chunk the caller takes, so results do not pile up here
    while the caller is slow."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                                                initargs=initargs) as pool:
        pending: collections.deque = collections.deque()
        for start in range(0, len(tasks), _CHUNK):
            pending.append(pool.submit(_run_chunk, fn, tasks[start:start + _CHUNK]))
            if len(pending) > _AHEAD * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def _create_files(out_dir: str, frames, status: int) -> None:
    """The writer process of ``_FileWriter``: creates in out_dir each file
    framed on ``frames`` until EOF, and writes to ``status`` the text of
    the OSError that stopped it, if one did."""
    try:
        while len(head := frames.read(8)) == 8:
            name = frames.read(int.from_bytes(head[:4], "little"))
            size = int.from_bytes(head[4:], "little")
            data = frames.read(size)
            if len(data) < size:  # the parent stopped in mid-frame
                break
            with open(os.path.join(out_dir, os.fsdecode(name)), "wb") as fh:
                fh.write(data)
    except OSError as exc:
        os.write(status, os.fsencode(str(exc)))


class _FileWriter:
    """One child process that creates the files it is sent while this
    process goes on, so that the kernel's file-creation time overlaps
    simulation.  The pipe bounds the bytes in flight: ``send`` blocks while
    the child is behind.  A child's OSError is raised by a later ``send``
    or at the end of the ``with`` block, which waits for the child."""

    def __init__(self, out_dir: str):
        frames_in, frames_out = os.pipe()
        status_in, status_out = os.pipe()
        # Forked before any thread or pool worker of this process starts.
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                os.close(frames_out)  # else this process would hold its own stream open
                with open(frames_in, "rb") as frames:
                    _create_files(out_dir, frames, status_out)
                code = 0
            finally:  # never return into the parent's code
                os._exit(code)
        os.close(frames_in)
        os.close(status_out)
        self._frames = open(frames_out, "wb")
        self._status = status_in

    def fileno(self) -> int:
        """The pipe's write end, which processes forked later must close."""
        return self._frames.fileno()

    def send(self, name: str, data: bytes) -> None:
        encoded = os.fsencode(name)
        try:
            self._frames.write(len(encoded).to_bytes(4, "little") + len(data).to_bytes(4, "little") + encoded)
            self._frames.write(data)
        except BrokenPipeError:  # the child stopped early: raise why
            raise self._stop() from None

    def _stop(self) -> Exception | None:
        """Ends the stream, waits for the child and returns what stopped it."""
        if self._frames.closed:  # stopped already
            return None
        try:
            self._frames.close()
        except BrokenPipeError:  # the child stopped early; it says why below
            pass
        with open(self._status, "rb") as fh:
            failure = fh.read()  # until the child exits
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        if failure:
            return OSError(os.fsdecode(failure))
        return RuntimeError(f"the file writer process exited with code {code}") if code else None

    def __enter__(self) -> "_FileWriter":
        return self

    def __exit__(self, exc_type, *_) -> None:
        failure = self._stop()  # after an exception the child writes what it has and ends
        if exc_type is None and failure is not None:
            raise failure


def _simulate_site(task) -> tuple[list[tuple[str, str]], list[str]]:
    """Run all rounds for one site.

    Returns the (file name, text) of each trace and truth file, and the
    outcome rows as JSON lines with their newlines.
    """
    scenario, partners, master_seed, rounds = task
    files: list[tuple[str, str]] = []
    rows: list[str] = []
    for round_index in range(rounds):
        outcome = run_scenario(scenario, partners, master_seed, round_index)
        trace = emit_trace(outcome, scenario, partners, round_index)
        files.append((trace_filename(scenario.site_id, round_index), serialize_trace(trace)))
        record = truth_record(outcome, scenario, round_index)
        files.append((truth_filename(scenario.site_id, round_index), _COMPACT_JSON.encode(record) + "\n"))
        rows.append(_COMPACT_JSON.encode(outcome_row(outcome, scenario, round_index)) + "\n")
    return files, rows


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # an --out that cannot be used is a usage error
        raise ConfigurationError(f"cannot use {path} as the output directory: {exc.strerror}") from None


def _resolve_seed(args_seed, file_seed) -> int:
    if args_seed is not None:
        seed = args_seed
    elif file_seed is not None:
        seed = file_seed
    elif os.environ.get(ENV_SEED):
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigurationError(f"{ENV_SEED} must be an integer") from exc
    else:
        raise ConfigurationError(
            f"no seed given: set master_seed in the scenario file, pass --seed, or export {ENV_SEED}"
        )
    if not (0 <= seed < 2**64):
        raise ConfigurationError("seed must fit in an unsigned 64-bit integer")
    return seed


def cmd_simulate(args) -> int:
    sf = load_scenario_file(args.scenario)
    master_seed = _resolve_seed(args.seed, sf.master_seed)
    sites = expand_sites(sf, master_seed)
    report = validate_scenario_file(sf, sites)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if report.violations:
        for violation in report.violations:
            print(f"invalid scenario: {violation}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or sf.output_dir or "out"
    _make_out_dir(out_dir)

    # Sites run in site-id order, so their outcome rows are written as they
    # come.  Their trace and truth files go to the writer process, hashed
    # here as the bytes handed over.
    tasks = [(site, sf.partners, master_seed, sf.rounds_per_site)
             for site in sorted(sites, key=lambda site: site.site_id)]
    digests: dict[str, str] = {}
    with _FileWriter(out_dir) as writer:

        def outcome_lines():
            for texts, rows in _map_ordered(_simulate_site, tasks, args.jobs, os.close, (writer.fileno(),)):
                for name, text in texts:
                    data = text.encode("utf-8")
                    digests[name] = "sha256:" + hashlib.sha256(data).hexdigest()
                    writer.send(name, data)
                yield from rows

        digests["outcomes.jsonl"] = _write(os.path.join(out_dir, "outcomes.jsonl"), outcome_lines())
    directory = indented_json(sf.directory().to_json())
    digests["directory.json"] = _write(os.path.join(out_dir, "directory.json"), [directory, "\n"])

    facet_counts: dict[str, int] = {}
    for site in sites:
        facet_counts[site.facet.value] = facet_counts.get(site.facet.value, 0) + 1
    manifest = {
        "tool": "hbarena",
        "version": __version__,
        "master_seed": master_seed,
        "scenario_digest": _sha256_file(args.scenario),
        "site_count": len(sites),
        "rounds_per_site": sf.rounds_per_site,
        "facet_counts": dict(sorted(facet_counts.items())),
        "site_meta": {
            site.site_id: {"rank": site.rank, "facet": site.facet.value} for site in sites
        },
        "files": digests,  # sorted once, by sort_keys
    }
    _write(os.path.join(out_dir, "manifest.json"), [indented_json(manifest), "\n"])
    stale = sorted(
        name for name in os.listdir(out_dir) if name.endswith(_CORPUS_SUFFIXES) and name not in digests
    )
    if stale:
        print(
            f"warning: {out_dir} holds {len(stale)} trace or truth file(s) this run did not write "
            f"(first: {file_label(stale[0])}); detect reads them, but the manifest does not list them",
            file=sys.stderr,
        )
    print(
        f"simulated {len(sites)} sites x {sf.rounds_per_site} rounds "
        f"(seed {master_seed}) into {out_dir}"
    )
    return EXIT_OK


def _load_directory(args) -> PartnerDirectory:
    if args.directory:
        return PartnerDirectory.from_file(args.directory)
    fallback = os.path.join(args.trace_dir, "directory.json")
    if os.path.exists(fallback):
        return PartnerDirectory.from_file(fallback)
    return builtin_directory()


def _score(per_trace: list[tuple], trace_dir: str) -> None:
    """Print precision, recall and facet accuracy of (key, failed, is_hb,
    facet) per trace against the truth sidecars."""
    truth: dict[tuple[str, int], str] = {}
    for path in sorted(os.path.join(trace_dir, n) for n in os.listdir(trace_dir) if n.endswith(".truth.jsonl")):
        for line_no, row in read_json_lines(path):
            site_id, round_index, facet = row.get("site_id"), row.get("round_index"), row.get("facet")
            if (type(site_id), type(round_index), type(facet)) != (str, int, str):
                raise ConfigurationError(f"{path}:{line_no}: needs a string site_id, int round_index and string facet")
            truth[(site_id, round_index)] = facet
    tp = fp = fn = tn = 0
    scored = errors = 0
    facet_hits = facet_total = 0
    for key, failed, detected_hb, facet in per_trace:
        actual_facet = truth.get(key)
        if actual_facet is None:
            continue
        scored += 1
        actual_hb = actual_facet in HB_FACETS
        if failed:
            # A trace that could not be read is a miss when it held HB.
            errors += 1
            fn += int(actual_hb)
            continue
        if detected_hb and actual_hb:
            tp += 1
            facet_total += 1
            facet_hits += int(facet == actual_facet)
        elif detected_hb and not actual_hb:
            fp += 1
        elif actual_hb:
            fn += 1
        else:
            tn += 1

    def ratio(num, den):
        if den == 0:
            return "n/a"
        return decimal_str((Decimal(num) / Decimal(den)).quantize(Decimal("0.000001")))

    print(f"scored {scored} traces against sidecar truth" + (f" ({errors} errors)" if errors else ""))
    print(f"precision={ratio(tp, tp + fp)} recall={ratio(tp, tp + fn)} "
          f"facet_accuracy={ratio(facet_hits, facet_total)}")


def _detect_trace(trace_dir: str, directory: PartnerDirectory, name: str) -> dict:
    """One trace file's result row, or its error row when it cannot be read."""
    try:
        trace = parse_trace_file(os.path.join(trace_dir, name))
    except (TraceParseError, UnicodeDecodeError, OSError) as exc:
        return {"site_id": file_label(name), "round_index": None, "error": str(exc)}
    return result_row(extract_auction_metadata(trace, directory))


def cmd_detect(args) -> int:
    if not os.path.isdir(args.trace_dir):
        raise ConfigurationError(f"trace directory not found: {args.trace_dir}")
    directory = _load_directory(args)
    trace_names = sorted(n for n in os.listdir(args.trace_dir) if n.endswith(".trace.jsonl"))
    rows = _map_ordered(functools.partial(_detect_trace, args.trace_dir, directory), trace_names, args.jobs)
    out_path = args.out or os.path.join(args.trace_dir, "results.jsonl")
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigurationError(f"cannot write {out_path}: its directory does not exist")
    # Rows are written as they come, to a file that replaces out_path only
    # when every trace is done; --score keeps one small tuple per trace.
    part_path = out_path + ".part"
    per_trace: list[tuple] = []
    errors = 0
    try:
        with open(part_path, "w", encoding="utf-8") as fh:
            for row in rows:
                failed = "error" in row
                errors += failed
                if args.score:
                    # An error row's site_id is the name of the trace file it failed on.
                    key = trace_key(row["site_id"]) if failed else (row["site_id"], row["round_index"])
                    per_trace.append((key, failed, row.get("is_hb"), row.get("facet")))
                fh.write(_COMPACT_JSON.encode(row) + "\n")
        os.replace(part_path, out_path)
    except BaseException:
        if os.path.exists(part_path):
            os.remove(part_path)
        raise
    print(f"detected over {len(trace_names)} traces -> {out_path}"
          + (f" ({errors} errors)" if errors else ""))
    if args.score:
        _score(per_trace, args.trace_dir)
    return EXIT_PARSE_ERRORS if errors else EXIT_OK


def _rank_by_site(manifest_path) -> dict[str, int] | None:
    if not manifest_path:
        return None
    manifest = read_json_file(manifest_path, "manifest")
    site_meta = manifest.get("site_meta", {}) if isinstance(manifest, dict) else None
    if not isinstance(site_meta, dict):
        raise ConfigurationError(f"manifest {manifest_path} is not a JSON object with a site_meta object")
    ranks = {}
    for site, meta in site_meta.items():
        rank = meta.get("rank") if isinstance(meta, dict) else None
        if type(rank) is not int or rank < 1:
            raise ConfigurationError(f"manifest {manifest_path}: site_meta {site!r} has no positive integer rank")
        ranks[site] = rank
    return ranks


def cmd_report(args) -> int:
    names = REPORT_NAMES if args.report == "all" else (args.report,)
    for name in names:
        if name not in REPORT_NAMES:
            print(
                f"unknown report {name!r}; valid names: all, {', '.join(REPORT_NAMES)}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
    records = load_records(args.input, _rank_by_site(args.manifest))
    _make_out_dir(args.out)
    reports = {}
    for name in names:
        rows = build_report(name, records, args.include_zero_bid_auctions)
        reports[name] = rows
        write_report_csv(os.path.join(args.out, f"{name}.csv"), rows)
    write_report_json(os.path.join(args.out, "report.json"), reports)
    print(f"wrote {len(names)} report(s) to {args.out}")
    return EXIT_OK


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hbarena", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hbarena {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario corpus and emit traces")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed override (u64)")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--jobs", type=_at_least_one, default=1,
                       help="concurrent site simulations (at most one worker per site)")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="classify traces for header-bidding activity")
    p_det.add_argument("trace_dir", help="directory of *.trace.jsonl files")
    p_det.add_argument("--directory", default=None, help="partner directory JSON file")
    p_det.add_argument("--out", default=None, help="results JSONL path")
    p_det.add_argument("--score", action="store_true", help="score against truth sidecars")
    p_det.add_argument("--jobs", type=_at_least_one, default=1,
                       help="concurrent trace detections (at most one worker per trace)")
    p_det.set_defaults(func=cmd_detect)

    p_rep = sub.add_parser("report", help="aggregate results or ground truth into reports")
    p_rep.add_argument("input", help="results.jsonl or outcomes.jsonl")
    p_rep.add_argument("--report", default="all", help="report name or 'all'")
    p_rep.add_argument("--out", default="reports", help="output directory")
    p_rep.add_argument("--manifest", default=None, help="run manifest (adds site ranks)")
    p_rep.add_argument(
        "--include-zero-bid-auctions",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep auctions that drew no bids in latency reports",
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (1), or --help / --version (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
