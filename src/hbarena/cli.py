"""Command-line pipeline: simulate a scenario corpus, detect over the traces,
and aggregate reports, fully reproducible from one master seed.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error,
3 detection completed but some traces could not be read or parsed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import json
import os
import signal
import sys
from decimal import Decimal
from typing import Iterator

from . import __version__
from .analytics import REPORT_NAMES, build_report, load_records, write_report_csv, write_report_json
from .auction import run_scenario
from .detector import extract_auction_metadata, result_row
from .domain import (HB_FACETS, ConfigurationError, PartnerDirectory, TraceParseError, builtin_directory,
                     compact_json, indented_json, read_json_file, read_json_lines, rounded_str)
from .scenario import expand_sites, load_scenario_file, validate_scenario_file
from .tracegen import (
    TRACE_SUFFIX,
    TRUTH_SUFFIX,
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

# Tasks per pool submission, and chunks submitted per worker ahead of the
# caller.  Finished chunks wait for the caller; simulate's hold trace and
# truth texts and outcome rows, about 100 KB a chunk on market_mix.  With one
# chunk ahead per worker, workers idled on round trips: detect --jobs 2 took
# 1.7x as long.
_CHUNK = 16
_AHEAD = 4

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
    import concurrent.futures  # here, not at the top: with logging, it adds about 10 ms to every command

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                                                initargs=initargs) as pool:
        pending: collections.deque = collections.deque()
        for start in range(0, len(tasks), _CHUNK):
            pending.append(pool.submit(_run_chunk, fn, tasks[start:start + _CHUNK]))
            if len(pending) > _AHEAD * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def _create_files(out_dir: str, frames) -> None:
    """The file writer's work: creates in out_dir each file framed on
    ``frames`` until EOF."""
    while len(head := frames.read(8)) == 8:
        name = frames.read(int.from_bytes(head[:4], "little"))
        size = int.from_bytes(head[4:], "little")
        data = frames.read(size)
        if len(data) < size:  # the parent stopped in mid-frame
            break
        with open(os.path.join(out_dir, os.fsdecode(name)), "wb") as fh:
            fh.write(data)


class _FileWriter:
    """One child process, forked before any thread or pool worker of this
    process starts, that runs ``_create_files(out_dir, stream)`` while this
    process goes on.  ``stream`` reads what ``send`` writes; the pipe bounds
    the bytes in flight, so ``send`` blocks while the child is behind.
    ``finish()`` ends the stream and waits for the child; the error that
    stopped it is raised as a RuntimeError with the same text, and a child
    that exits without one gives a RuntimeError with its exit code.  Leaving
    the ``with`` block before ``finish()`` kills the child."""

    def __init__(self, out_dir: str):
        stream_in, stream_out = os.pipe()
        error_in, error_out = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                os.close(stream_out)  # else this process would hold its own stream open
                os.close(error_in)
                with open(stream_in, "rb") as stream:
                    _create_files(out_dir, stream)
                code = 0
            except Exception as exc:  # noqa: BLE001 - raised again by the parent
                with open(error_out, "wb") as fh:
                    fh.write(str(exc).encode("utf-8", "surrogatepass"))
            finally:
                os._exit(code)  # never back into this process's code
        os.close(stream_in)
        os.close(error_out)
        self._stream = open(stream_out, "wb")
        self._error = error_in

    def fileno(self) -> int:
        """The stream's write end, which processes forked later must close."""
        return self._stream.fileno()

    def send(self, name: str, data: bytes) -> None:
        """Streams one file's name and bytes, framed as ``_create_files`` reads them."""
        encoded = os.fsencode(name)
        try:
            self._stream.write(len(encoded).to_bytes(4, "little") + len(data).to_bytes(4, "little") + encoded)
            self._stream.write(data)
        except BrokenPipeError:  # the child stopped early: finish() raises why
            self.finish()
            raise

    def _wait(self) -> tuple[bytes, int]:
        """Ends the stream; the child's error text and exit code, once it has exited."""
        try:
            self._stream.close()
        except BrokenPipeError:  # the child stopped early; its error text says why
            pass
        with open(self._error, "rb") as fh:
            error = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        return error, code

    def finish(self) -> None:
        error, code = self._wait()
        if error:
            raise RuntimeError(error.decode("utf-8", "surrogatepass"))
        if code:
            raise RuntimeError(f"the file writer process exited with code {code}")

    def __enter__(self) -> "_FileWriter":
        return self

    def __exit__(self, *_) -> None:
        if self._pid is not None:  # left before finish()
            os.kill(self._pid, signal.SIGKILL)
            self._wait()


@contextlib.contextmanager
def _replacing(path: str):
    """A text file, ``path`` with ".part" appended, that replaces ``path``
    when the block ends and is removed if the block raises."""
    part_path = path + ".part"
    try:
        with open(part_path, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(part_path, path)
    except BaseException:
        if os.path.exists(part_path):
            os.remove(part_path)
        raise


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
        files.append((truth_filename(scenario.site_id, round_index), compact_json(record) + "\n"))
        rows.append(compact_json(outcome_row(outcome, scenario, round_index)) + "\n")
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
        writer.finish()
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
    # Streamed to the file: the text grows with the corpus and is never held whole.
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stale = sorted(
        name for name in os.listdir(out_dir) if name.endswith((TRACE_SUFFIX, TRUTH_SUFFIX)) and name not in digests
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


def _read_truth(trace_dir: str) -> dict[tuple[str, int], str]:
    """The facet of each (site id, round index) in the truth sidecars of
    trace_dir, read in name order, the last row for a key winning."""
    truth: dict[tuple[str, int], str] = {}
    for path in sorted(os.path.join(trace_dir, n) for n in os.listdir(trace_dir) if n.endswith(TRUTH_SUFFIX)):
        for line_no, row in read_json_lines(path):
            site_id, round_index, facet = row.get("site_id"), row.get("round_index"), row.get("facet")
            if (type(site_id), type(round_index), type(facet)) != (str, int, str):
                raise ConfigurationError(f"{path}:{line_no}: needs a string site_id, int round_index and string facet")
            truth[(site_id, round_index)] = facet
    return truth


def _score(per_trace: list[tuple], truth: dict[tuple[str, int], str]) -> None:
    """Print precision, recall and facet accuracy of (key, failed, is_hb,
    facet) per trace against the truth map of ``_read_truth``."""
    tp = fp = fn = 0
    scored = errors = 0
    facet_hits = 0
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
            facet_hits += int(facet == actual_facet)
        elif detected_hb and not actual_hb:
            fp += 1
        elif actual_hb:
            fn += 1

    def ratio(num, den):
        if den == 0:
            return "n/a"
        return rounded_str(Decimal(num) / Decimal(den))

    print(f"scored {scored} traces against sidecar truth" + (f" ({errors} errors)" if errors else ""))
    print(f"precision={ratio(tp, tp + fp)} recall={ratio(tp, tp + fn)} "
          f"facet_accuracy={ratio(facet_hits, tp)}")


def _detect_trace(trace_dir: str, directory: PartnerDirectory, name: str) -> dict:
    """One trace file's result row, or its error row when it cannot be read."""
    try:
        trace = parse_trace_file(os.path.join(trace_dir, name))
    except (TraceParseError, OSError) as exc:
        return {"site_id": file_label(name), "round_index": None, "error": str(exc)}
    return result_row(extract_auction_metadata(trace, directory))


def cmd_detect(args) -> int:
    if not os.path.isdir(args.trace_dir):
        raise ConfigurationError(f"trace directory not found: {args.trace_dir}")
    directory = _load_directory(args)
    trace_names = sorted(n for n in os.listdir(args.trace_dir) if n.endswith(TRACE_SUFFIX))
    out_path = args.out or os.path.join(args.trace_dir, "results.jsonl")
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigurationError(f"cannot write {out_path}: its directory does not exist")
    if os.path.isdir(out_path):
        raise ConfigurationError(f"cannot write {out_path}: it is a directory")
    # Rows are written as they come, to a file that replaces out_path only
    # when every trace is done; --score keeps one small tuple per trace.
    per_trace: list[tuple] = []
    errors = 0
    rows = _map_ordered(functools.partial(_detect_trace, args.trace_dir, directory), trace_names, args.jobs)
    with _replacing(out_path) as fh:
        for row in rows:
            failed = "error" in row
            errors += failed
            if args.score:
                # An error row's site_id is the name of the trace file it failed on.
                key = trace_key(row["site_id"]) if failed else (row["site_id"], row["round_index"])
                per_trace.append((key, failed, row.get("is_hb"), row.get("facet")))
            fh.write(compact_json(row) + "\n")
    print(f"detected over {len(trace_names)} traces -> {out_path}"
          + (f" ({errors} errors)" if errors else ""))
    if args.score:
        _score(per_trace, _read_truth(args.trace_dir))
    return EXIT_PARSE_ERRORS if errors else EXIT_OK


def _rank_by_site(manifest_path) -> dict[str, int] | None:
    if not manifest_path:
        return None
    manifest = read_json_file(manifest_path, "manifest")
    site_meta = manifest.get("site_meta") if isinstance(manifest, dict) else None
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
    if args.report != "all" and args.report not in REPORT_NAMES:
        print(f"unknown report {args.report!r}; valid names: all, {', '.join(REPORT_NAMES)}", file=sys.stderr)
        return EXIT_CONFIG
    # One report at a time, in name order as report.json holds them: each
    # report's rows are dropped before the next one is built.
    names = sorted(REPORT_NAMES) if args.report == "all" else [args.report]
    records = load_records(args.input, _rank_by_site(args.manifest))
    _make_out_dir(args.out)
    with _replacing(os.path.join(args.out, "report.json")) as fh:
        for i, name in enumerate(names):
            rows = build_report(name, records, args.include_zero_bid_auctions)
            write_report_csv(os.path.join(args.out, f"{name}.csv"), rows)
            write_report_json(fh, name, rows, i == 0, i == len(names) - 1)
            del rows
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
