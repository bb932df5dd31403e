"""Output checks for one benchmark corpus.

None of them compares against a stored copy of earlier output.  Each value is
either recomputed here, independently of the package, or rests on a property
the method must have:

* the manifest's facet counts are the largest-remainder quotas of the
  scenario's facet weights, recomputed in exact fractions;
* every file hashes (``hashlib``) to its manifest digest;
* ``serialize_trace(parse_trace_file(p))`` gives back each trace's bytes;
* there is one result row per trace, none is an error, and ``is_hb``, the
  facet and ``late_bid_count`` equal the truth sidecar (the detector is exact
  on synthetic traces), and ``detect --score`` prints 1 for all three ratios;
* ``facet_breakdown`` and ``latency_by_partner_count`` equal a recomputation
  from ``outcomes.jsonl`` with linear interpolation between closest ranks,
  and the detector-side ``facet_breakdown`` equals the ground-truth one.

Every check returns a list of failure messages; an empty list means it held.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path

from hbarena.analytics import REPORT_NAMES
from hbarena.tracegen import parse_trace_file, serialize_trace

HB_FACETS = frozenset({"client_side", "server_side", "hybrid"})
TRACE_RE = re.compile(r"^(?P<site>.+)__r(?P<round>\d+)\.trace\.jsonl$")
# Reports write values rounded half-even to 6 decimals.
REPORT_QUANTUM = Fraction(1, 10**6)
PERCENTILES = (5, 25, 50, 75, 95)
# Files a corpus directory gains after simulate; the manifest does not list them.
NOT_IN_MANIFEST = frozenset({"manifest.json", "results.jsonl"})


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quota_counts(weights: dict, n: int) -> dict[str, int]:
    """Largest-remainder allocation of n items; ties go to the larger name."""
    exact = {key: Fraction(str(w)) for key, w in weights.items() if Fraction(str(w)) > 0}
    total = sum(exact.values())
    shares = {key: n * w / total for key, w in exact.items()}
    counts = {key: math.floor(share) for key, share in shares.items()}
    left = n - sum(counts.values())
    for key in sorted(shares, key=lambda k: (shares[k] - counts[k], k), reverse=True)[:left]:
        counts[key] += 1
    return counts


def trace_names(out_dir: Path) -> list[str]:
    return sorted(n for n in os.listdir(out_dir) if n.endswith(".trace.jsonl"))


def check_manifest(out_dir: Path, scenario: dict, seed: int) -> list[str]:
    errors = []
    manifest = load_json(out_dir / "manifest.json")
    gen = scenario["generator"]
    n = int(gen["num_sites"])
    expected = quota_counts(gen["facet_weights"], n)
    if manifest["facet_counts"] != dict(sorted(expected.items())):
        errors.append(f"facet_counts {manifest['facet_counts']} != largest-remainder quotas {expected}")
    if manifest["site_count"] != n or len(manifest["site_meta"]) != n:
        errors.append(f"manifest lists {manifest['site_count']} sites, scenario asks for {n}")
    if manifest["master_seed"] != seed:
        errors.append(f"manifest seed {manifest['master_seed']} != {seed}")
    rounds = int(scenario.get("rounds_per_site", 1))
    if len(trace_names(out_dir)) != n * rounds:
        errors.append(f"{len(trace_names(out_dir))} trace files for {n} sites x {rounds} rounds")
    return errors


def check_digests(out_dir: Path, manifest_dir: Path | None = None) -> list[str]:
    """Files on disk are exactly the manifest's, and each hashes to its digest."""
    files = load_json((manifest_dir or out_dir) / "manifest.json")["files"]
    on_disk = {n for n in os.listdir(out_dir) if (out_dir / n).is_file()} - NOT_IN_MANIFEST
    errors = []
    if on_disk != set(files):
        errors.append(f"{out_dir.name}: files on disk differ from the manifest: "
                      f"{sorted(on_disk ^ set(files))[:5]}")
    bad = [name for name in sorted(on_disk & set(files)) if sha256_file(out_dir / name) != files[name]]
    if bad:
        errors.append(f"{out_dir.name}: {len(bad)} files do not match their manifest digest, e.g. {bad[0]}")
    return errors


def check_roundtrip(out_dir: Path) -> list[str]:
    bad = []
    for name in trace_names(out_dir):
        path = out_dir / name
        if serialize_trace(parse_trace_file(path)).encode("utf-8") != path.read_bytes():
            bad.append(name)
    return [f"{len(bad)} traces do not survive parse -> serialize, e.g. {bad[0]}"] if bad else []


def check_results(out_dir: Path) -> list[str]:
    """One row per trace, no error rows, and agreement with every sidecar."""
    rows = load_jsonl(out_dir / "results.jsonl")
    errors = [f"error row for {row['site_id']}: {row['error']}" for row in rows if "error" in row][:5]
    by_key = {(row["site_id"], row["round_index"]): row for row in rows if "error" not in row}
    names = trace_names(out_dir)
    if len(rows) != len(names):
        errors.append(f"{len(rows)} result rows for {len(names)} traces")
    mismatched = []
    for name in names:
        m = TRACE_RE.match(name)
        site, rnd = m.group("site"), int(m.group("round"))
        row = by_key.get((site, rnd))
        if row is None:
            errors.append(f"no result row for {name}")
            continue
        truth = load_jsonl(out_dir / f"{site}__r{rnd}.truth.jsonl")[0]
        is_hb = truth["facet"] in HB_FACETS
        expected = (is_hb, truth["facet"] if is_hb else None, truth["late_bid_count"])
        if (row["is_hb"], row["facet"], row["late_bid_count"]) != expected:
            mismatched.append(name)
    if mismatched:
        errors.append(f"{len(mismatched)} result rows disagree with their truth sidecar, e.g. {mismatched[0]}")
    return errors


def check_score_output(stdout: str) -> list[str]:
    m = re.search(r"precision=(\S+) recall=(\S+) facet_accuracy=(\S+)", stdout)
    if m is None:
        return ["detect --score printed no precision/recall line"]
    if m.groups() != ("1", "1", "1"):
        return [f"detect --score is not exact on synthetic traces: {m.group(0)}"]
    return []


def percentile(sorted_values: list[Fraction], q: int) -> Fraction:
    """Linear interpolation between closest ranks, exact."""
    h = Fraction(q * (len(sorted_values) - 1), 100)
    lo = math.floor(h)
    if lo + 1 >= len(sorted_values):
        return sorted_values[lo]
    return sorted_values[lo] + (h - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def _row_close(row: dict, count: int, values: dict[str, Fraction]) -> bool:
    if row["count"] != count:
        return False
    return all(abs(Fraction(row[key]) - value) <= REPORT_QUANTUM / 2 for key, value in values.items())


def expected_facet_breakdown(outcomes: list[dict]) -> dict[str, tuple[int, Fraction]]:
    sites: dict[str, set[str]] = {}
    for row in outcomes:
        if row["facet"] in HB_FACETS:
            sites.setdefault(row["facet"], set()).add(row["site_id"])
    total = len(set().union(*sites.values())) if sites else 0
    return {facet: (len(s), Fraction(len(s), total)) for facet, s in sites.items()}


def expected_latency_by_partner_count(outcomes: list[dict]) -> dict[str, tuple[int, dict[str, Fraction]]]:
    groups: dict[str, list[Fraction]] = {}
    for row in outcomes:
        if row.get("total_latency_ms") is not None:
            groups.setdefault(str(len(row["partner_ids"])), []).append(Fraction(row["total_latency_ms"]))
    expected = {}
    for key, values in groups.items():
        values.sort()
        stats = {f"p{q}": percentile(values, q) for q in PERCENTILES}
        stats["mean"] = sum(values) / len(values)
        expected[key] = (len(values), stats)
    return expected


def check_reports(out_dir: Path) -> list[str]:
    errors = []
    truth_reports = load_json(out_dir / "report_truth" / "report.json")["reports"]
    result_reports = load_json(out_dir / "report_results" / "report.json")["reports"]
    for label, reports, report_dir in (("outcomes", truth_reports, "report_truth"),
                                       ("results", result_reports, "report_results")):
        missing = [n for n in REPORT_NAMES if n not in reports or not (out_dir / report_dir / f"{n}.csv").is_file()]
        if missing:
            errors.append(f"report on {label} lacks {missing}")
    outcomes = load_jsonl(out_dir / "outcomes.jsonl")

    facets = expected_facet_breakdown(outcomes)
    rows = {row["group"]: row for row in truth_reports.get("facet_breakdown", [])}
    if set(rows) != set(facets) or not all(
        _row_close(rows[f], n, {"p50": share, "mean": share}) for f, (n, share) in facets.items()
    ):
        errors.append("facet_breakdown differs from its recomputation from outcomes.jsonl")
    if result_reports.get("facet_breakdown") != truth_reports.get("facet_breakdown"):
        errors.append("facet_breakdown from detector results differs from ground truth")

    latency = expected_latency_by_partner_count(outcomes)
    rows = {row["group"]: row for row in truth_reports.get("latency_by_partner_count", [])}
    if set(rows) != set(latency) or not all(
        _row_close(rows[key], n, stats) for key, (n, stats) in latency.items()
    ):
        errors.append("latency_by_partner_count differs from its recomputation from outcomes.jsonl")
    return errors


def check_corpus(out_dir: Path, scenario: dict, seed: int) -> list[str]:
    """Every check on one complete round (simulate, detect, both reports)."""
    return (check_manifest(out_dir, scenario, seed) + check_digests(out_dir) + check_roundtrip(out_dir)
            + check_results(out_dir) + check_reports(out_dir))


def same_manifest_files(a: Path, b: Path) -> list[str]:
    files_a = load_json(a / "manifest.json")["files"]
    files_b = load_json(b / "manifest.json")["files"]
    if files_a != files_b:
        differ = sorted(n for n in set(files_a) | set(files_b) if files_a.get(n) != files_b.get(n))
        return [f"{b.name}: {len(differ)} manifest digests differ from {a.name}, e.g. {differ[0]}"]
    return []


def same_outputs(a: Path, b: Path) -> list[str]:
    """Round b reproduces round a: every file, results and both reports."""
    errors = same_manifest_files(a, b) + check_digests(b, manifest_dir=a)
    for rel in ("results.jsonl", "report_truth/report.json", "report_results/report.json"):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            errors.append(f"{b.name}/{rel} differs from {a.name}")
    return errors
