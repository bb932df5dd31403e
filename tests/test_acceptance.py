"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
Statistical criteria use the documented scenario configs under scenarios/
and fixed seed lists; nothing is recalibrated at test time.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import oracles
from hbarena.analytics import StatsSummary, load_records, percentile, report_values
from hbarena.auction import Bid, run_scenario, select_winner
from hbarena.cli import main
from hbarena.detector import extract_auction_metadata
from hbarena.domain import (
    AdSlotSpec,
    BidModel,
    DemandPartnerSpec,
    Facet,
    LatencyModel,
    PartnerDirectory,
    WebsiteScenario,
    WrapperPolicy,
)
from hbarena.scenario import expand_sites, load_scenario_file
from hbarena.tracegen import KIND_DOM, parse_trace_file, serialize_trace

D = Decimal
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PARTNER_COUNT_SEEDS = range(101, 111)
WATERFALL_SEEDS = range(303, 313)


def criterion(number: int, name: str, passed: bool, detail: str = ""):
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def run_corpus(path, seed=None):
    sf = load_scenario_file(path)
    master_seed = seed if seed is not None else sf.master_seed
    sites = expand_sites(sf, master_seed)
    outcomes = []
    for site in sites:
        for round_index in range(sf.rounds_per_site):
            outcomes.append(
                (site, run_scenario(site, sf.partners, master_seed, round_index))
            )
    return sf, sites, outcomes


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixed") / "run"
    code = main(
        ["simulate", "--scenario", str(SCENARIOS / "mixed_corpus_1000.json"), "--out", str(out)]
    )
    assert code == 0
    return out


def test_criterion_01_winner_selection_oracle_equivalence():
    rng = random.Random(0xC0FFEE)
    started = time.monotonic()
    auctions = mismatches = 0
    while auctions < 10_000:
        auctions += 1
        n_slots = rng.randint(1, 20)
        n_partners = rng.randint(1, 20)
        for slot in range(n_slots):
            floor = D(rng.randint(0, 500)) / 1000
            bids = []
            for p in range(n_partners):
                arrived = D(rng.randint(0, 4000))
                bids.append(
                    Bid(
                        partner_id=f"p{rng.randint(0, 25):02d}",
                        cpm=D(rng.randint(0, 1000)) / 1000,
                        requested_at_ms=D(0),
                        arrived_at_ms=arrived,
                        late=rng.random() < 0.3,
                        channel="client",
                    )
                )
            expected = oracles.brute_force_winner(
                [(b.partner_id, b.cpm, b.arrived_at_ms, b.late) for b in bids], floor
            )
            if select_winner(bids, floor) != expected:
                mismatches += 1
    elapsed = time.monotonic() - started
    criterion(
        1,
        "winner-selection oracle equivalence",
        mismatches == 0 and elapsed < 60,
        f"{auctions} auctions, {mismatches} mismatches, {elapsed:.1f}s",
    )


def _random_wrapper_scenario(rng, i):
    n_partners = rng.randint(1, 6)
    roster = {}
    for p in range(n_partners):
        pid = f"p{p}"
        roster[pid] = DemandPartnerSpec(
            partner_id=pid,
            domains=(f"{pid}.example.net",),
            latency_model=(
                LatencyModel.fixed(D(rng.randint(1, 4000)))
                if rng.random() < 0.7
                else LatencyModel.lognormal(rng.uniform(4, 8), rng.uniform(0.1, 1.0))
            ),
            bid_model=BidModel.fixed(D(rng.randint(0, 800)) / 1000),
            response_probability=D(1) if rng.random() < 0.8 else D("0.5"),
        )
    hybrid = rng.random() < 0.4
    if hybrid:
        roster["srv"] = DemandPartnerSpec(
            partner_id="srv",
            domains=("srv.example.net",),
            latency_model=LatencyModel.fixed(D(80)),
            bid_model=BidModel.fixed(D(rng.randint(0, 800)) / 1000),
            response_probability=D("0.8"),
        )
    scenario = WebsiteScenario(
        site_id=f"rnd{i}",
        rank=1 + i,
        facet=Facet.HYBRID if hybrid else Facet.CLIENT_SIDE,
        slots=tuple(
            AdSlotSpec(f"slot{s}", 300, 250, D(rng.randint(0, 400)) / 1000)
            for s in range(rng.randint(1, 3))
        ),
        partners=tuple(f"p{p}" for p in range(n_partners)),
        wrapper_policy=rng.choice(list(WrapperPolicy)),
        ad_server_latency=LatencyModel.fixed(D(rng.randint(1, 500))),
        timeout_ms=rng.choice([1000, 3000]),
        ad_server_partner_id="srv" if hybrid else None,
    )
    return scenario, roster


def test_criterion_02_late_bid_correctness():
    rng = random.Random(0xBEEF)
    started = time.monotonic()
    runs = violations = 0
    for i in range(10_000):
        scenario, roster = _random_wrapper_scenario(rng, i)
        outcome = run_scenario(scenario, roster, master_seed=i)
        runs += 1
        send = outcome.wrapper_send_time_ms
        for slot in outcome.slots:
            for bid in slot.bids:
                if bid.late != (bid.arrived_at_ms > send):
                    violations += 1
            if slot.winner is not None:
                pid, cpm = slot.winner
                winning = [b for b in slot.bids if b.partner_id == pid and b.cpm == cpm]
                if not winning or all(b.late for b in winning):
                    violations += 1
    elapsed = time.monotonic() - started
    criterion(
        2,
        "late-bid flags exact, winners never late",
        violations == 0 and elapsed < 60,
        f"{runs} randomized runs, {violations} violations, {elapsed:.1f}s",
    )


def _detect_and_score(trace_dir):
    directory = PartnerDirectory.from_file(trace_dir / "directory.json")
    truth = {}
    for sidecar in trace_dir.glob("*.truth.jsonl"):
        row = json.loads(sidecar.read_text())
        truth[(row["site_id"], row["round_index"])] = row
    tp = fp = fn = tn = 0
    facet_hits = facet_total = 0
    corner_misses = other_misses = 0
    results = []
    for trace_path in sorted(trace_dir.glob("*.trace.jsonl")):
        trace = parse_trace_file(trace_path)
        result = extract_auction_metadata(trace, directory)
        results.append(result)
        row = truth[(trace.site_id, trace.round_index)]
        actual_hb = row["facet"] in ("client_side", "server_side", "hybrid")
        if result.is_hb and actual_hb:
            tp += 1
            facet_total += 1
            if result.facet.value == row["facet"]:
                facet_hits += 1
            elif row["facet"] == "client_side" and result.facet is Facet.HYBRID:
                corner_misses += 1
            else:
                other_misses += 1
        elif result.is_hb:
            fp += 1
        elif actual_hb:
            fn += 1
        else:
            tn += 1
    return results, tp, fp, fn, tn, facet_hits, facet_total, corner_misses, other_misses


def test_criterion_03_detector_exactness(mixed_corpus):
    started = time.monotonic()
    _, tp, fp, fn, tn, hits, total, corner, other = _detect_and_score(mixed_corpus)
    elapsed = time.monotonic() - started
    precision_perfect = fp == 0 and tp > 0
    recall_perfect = fn == 0
    facet_accuracy = hits / total
    criterion(
        3,
        "detector exact on 1000-site mixed corpus",
        precision_perfect and recall_perfect and facet_accuracy >= 0.99 and other == 0
        and elapsed < 120,
        f"tp={tp} fp={fp} fn={fn} tn={tn} facet_accuracy={facet_accuracy:.4f} "
        f"corner_misses={corner} other_misses={other} {elapsed:.1f}s",
    )


def test_criterion_04_facet_breakdown_reproduction(tmp_path):
    out = tmp_path / "run"
    assert main(
        ["simulate", "--scenario", str(SCENARIOS / "market_mix_5000.json"), "--out", str(out)]
    ) == 0
    directory = PartnerDirectory.from_file(out / "directory.json")
    counts = {}
    hb_sites = 0
    for trace_path in sorted(out.glob("*.trace.jsonl")):
        result = extract_auction_metadata(parse_trace_file(trace_path), directory)
        if result.is_hb:
            hb_sites += 1
            counts[result.facet.value] = counts.get(result.facet.value, 0) + 1
    observed = {facet: 100 * n / hb_sites for facet, n in counts.items()}
    targets = {"server_side": 48.0, "hybrid": 34.7, "client_side": 17.3}
    deltas = {facet: abs(observed.get(facet, 0.0) - pct) for facet, pct in targets.items()}
    manifest = json.loads((out / "manifest.json").read_text())
    quota_ok = manifest["facet_counts"] == {"client_side": 865, "hybrid": 1735, "server_side": 2400}
    criterion(
        4,
        "facet breakdown within 2pp of 48/34.7/17.3",
        quota_ok and all(delta <= 2.0 for delta in deltas.values()),
        f"observed={ {k: round(v, 2) for k, v in observed.items()} } deltas={ {k: round(v, 3) for k, v in deltas.items()} }",
    )


def test_criterion_05_latency_vs_partner_count():
    orderings_ok = True
    ratio_hits = 0
    details = []
    for seed in PARTNER_COUNT_SEEDS:
        _, _, outcomes = run_corpus(SCENARIOS / "latency_vs_partner_count.json", seed)
        by_count = {}
        for site, outcome in outcomes:
            by_count.setdefault(len(site.partners), []).append(outcome.total_latency_ms)
        medians = {k: percentile(v, 50) for k, v in by_count.items()}
        ordered = medians[1] < medians[2] < medians[3]
        orderings_ok = orderings_ok and ordered
        ratio = medians[2] / medians[1]
        ratio_hits += int(ratio >= 2)
        details.append(f"seed {seed}: {medians[1]:.0f}/{medians[2]:.0f}/{medians[3]:.0f} (x{ratio:.1f})")
    criterion(
        5,
        "median latency strictly increasing with partner count",
        orderings_ok and ratio_hits >= 9,
        f"ordering on 10/10 seeds, ratio>=2 on {ratio_hits}/10; " + details[0],
    )


def test_criterion_06_hb_vs_waterfall_ratio():
    ratios = []
    for seed in WATERFALL_SEEDS:
        _, _, outcomes = run_corpus(SCENARIOS / "hb_vs_waterfall.json", seed)
        hb = [o.total_latency_ms for s, o in outcomes if s.facet is Facet.CLIENT_SIDE]
        wf = [o.total_latency_ms for s, o in outcomes if s.facet is Facet.WATERFALL_ONLY]
        ratios.append(percentile(hb, 50) / percentile(wf, 50))
    in_band = [r for r in ratios if D(2) <= r <= D(4)]
    criterion(
        6,
        "HB/waterfall median latency ratio in [2, 4]",
        len(in_band) == len(ratios),
        f"ratios {[f'{float(r):.2f}' for r in ratios]}",
    )


def test_criterion_07_late_bid_distribution_shape(tmp_path):
    out = tmp_path / "run"
    assert main(
        ["simulate", "--scenario", str(SCENARIOS / "misconfigured_wrappers.json"), "--out", str(out)]
    ) == 0
    records = load_records(out / "outcomes.jsonl")
    stats = StatsSummary.of(report_values("late_bid_fractions", records)["auctions_with_late_bids"])
    median = stats.p50
    criterion(
        7,
        "median late fraction (auctions with late bids) = 0.5 +/- 0.15",
        D("0.35") <= median <= D("0.65"),
        f"median={median} over {stats.count} auctions",
    )


def slot_size_summaries(path):
    return {size: StatsSummary.of(cpms)
            for size, cpms in report_values("prices_by_slot_size", load_records(path)).items()}


def test_criterion_08_price_table_reproduction(tmp_path):
    out = tmp_path / "run"
    assert main(
        ["simulate", "--scenario", str(SCENARIOS / "price_table.json"), "--out", str(out)]
    ) == 0
    truth_stats = slot_size_summaries(out / "outcomes.jsonl")
    assert main(["detect", str(out)]) == 0
    result_stats = slot_size_summaries(out / "results.jsonl")
    expected = {"300x250": D("0.031"), "120x600": D("0.096"), "300x50": D("0.00084")}
    exact = all(
        truth_stats[size].p50 == cpm and result_stats[size].p50 == cpm
        for size, cpm in expected.items()
    )
    criterion(
        8,
        "pinned price medians exact (0.031 / 0.096 / 0.00084)",
        exact,
        ", ".join(f"{size}={truth_stats[size].p50}" for size in expected),
    )


def _pipeline_digests(out: Path, hash_seed: str, scenario: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    for argv in (
        ["simulate", "--scenario", str(scenario), "--out", str(out)],
        ["detect", str(out)],
        ["report", str(out / "outcomes.jsonl"), "--out", str(out / "reports"),
         "--manifest", str(out / "manifest.json")],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "hbarena.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_09_end_to_end_determinism(tmp_path):
    scenario = SCENARIOS / "mixed_corpus_1000.json"
    first = _pipeline_digests(tmp_path / "a", "0", scenario)
    second = _pipeline_digests(tmp_path / "b", "31337", scenario)
    criterion(
        9,
        "simulate->detect->report byte-identical across runs and hash seeds",
        first == second and len(first) > 2000,
        f"{len(first)} files compared",
    )


def test_criterion_10_round_trip_and_fingerprints(mixed_corpus):
    truth_by_key = {}
    for sidecar in mixed_corpus.glob("*.truth.jsonl"):
        row = json.loads(sidecar.read_text())
        truth_by_key[(row["site_id"], row["round_index"])] = row["facet"]
    checked = failures = 0
    for trace_path in sorted(mixed_corpus.glob("*.trace.jsonl")):
        trace = parse_trace_file(trace_path)
        checked += 1
        if serialize_trace(trace).encode() != trace_path.read_bytes():
            failures += 1
            continue
        facet = truth_by_key[(trace.site_id, trace.round_index)]
        dom_names = [e.event_name for e in trace.events if e.kind == KIND_DOM]
        has_hb_params = any(
            k in ("bidder", "hb_partner", "hb_price", "hb_size") or k.startswith("hb_")
            for e in trace.events
            for k in e.params
        )
        if facet == "server_side" and "bidRequested" in dom_names:
            failures += 1
        elif facet == "waterfall_only" and (dom_names or has_hb_params):
            failures += 1
    criterion(
        10,
        "round-trip identity and facet fingerprints on full corpus",
        failures == 0 and checked == 1000,
        f"{checked} traces checked, {failures} failures",
    )
