"""Memory that grows with the input only where the output needs it.

``simulate`` hands trace and truth files to its writer process through a
pipe, so under ``--jobs`` its traced peak must not grow by a site's texts
per site while the writer is behind.  ``detect`` writes each result row as
it comes, so its traced peak must not grow by a result row per trace.  ``report`` keeps integer columns and facts
per site, not a record per auction, and one copy of each repeated string.
"""

import gc
import json
import time
import tracemalloc
from pathlib import Path

import pytest

import oracles
from hbarena.analytics import REPORT_NAMES, build_report, load_records
from hbarena import cli
from hbarena.cli import main

MARKET_MIX = Path(__file__).resolve().parent.parent / "scenarios" / "market_mix_5000.json"


@pytest.fixture(scope="module")
def market_mix_corpora(tmp_path_factory) -> dict[int, Path]:
    """market_mix_5000.json cut to 60 and to 600 sites, simulated."""
    root = tmp_path_factory.mktemp("market_mix")
    scenario = json.loads(MARKET_MIX.read_text())
    corpora = {}
    for sites in (60, 600):
        scenario["generator"]["num_sites"] = sites
        path = root / f"market_mix_{sites}.json"
        path.write_text(json.dumps(scenario))
        corpora[sites] = root / f"run_{sites}"
        assert main(["simulate", "--scenario", str(path), "--out", str(corpora[sites])]) == 0
    return corpora


def simulate_peak_bytes(scenario: Path, out: Path, jobs: str) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--jobs", jobs]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_holds_no_queue_of_the_corpus(tmp_path, monkeypatch):
    """A writer that starts late makes the pipe fill; the pool's workers
    then run ahead of this process only by a few chunks, not by the corpus."""
    create_files = cli._create_files

    def late_writer(*args):
        time.sleep(1)
        create_files(*args)

    monkeypatch.setattr(cli, "_create_files", late_writer)  # the writer is forked with it
    scenario = json.loads(MARKET_MIX.read_text())
    growth = {}
    for jobs in ("1", "2"):
        peaks = {}
        for sites in (60, 600):
            scenario["generator"]["num_sites"] = sites
            path = tmp_path / f"market_mix_{sites}.json"
            path.write_text(json.dumps(scenario))
            peaks[sites] = simulate_peak_bytes(path, tmp_path / f"run_{sites}_{jobs}", jobs)
        growth[jobs] = (peaks[600] - peaks[60]) / (600 - 60)
    # A site's trace, truth and outcome texts take about 6 KB.
    assert growth["2"] < growth["1"] + 1024, f"simulate --jobs 2 grows by {growth} bytes per site"


def detect_peak_bytes(run: Path) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["detect", str(run), "--score"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detect_peak_does_not_grow_per_trace(market_mix_corpora, capsys):
    small, large = market_mix_corpora[60], market_mix_corpora[600]
    # Fill the bounded host and timestamp caches first, so both runs see them full.
    assert main(["detect", str(large)]) == 0
    growth = (detect_peak_bytes(large) - detect_peak_bytes(small)) / (600 - 60)
    assert "precision=1 recall=1 facet_accuracy=1" in capsys.readouterr().out
    assert growth < 1024, f"detect's traced peak grows by {growth:.0f} bytes per trace"


@pytest.mark.parametrize("source", ["outcomes.jsonl", "results.jsonl"])
def test_load_records_shares_one_str_per_partner(market_mix_corpora, source):
    """Each partner, slot size and facet string is stored once, however many
    column keys, tallies and per-site partner sets hold it."""
    run = market_mix_corpora[60]
    if source == "results.jsonl":
        assert main(["detect", str(run)]) == 0
    records = load_records(run / source)
    held = [*records.bid_latency, *records.client_bids]
    for partner, size, facet in records.cpm:
        held += [partner, size, facet]
    for facet, partners in records.hb_sites.values():
        held += [facet, *partners]
    first: dict[str, str] = {}
    for value in held:
        if value is not None:
            assert first.setdefault(value, value) is value, value
    assert len(held) > 2 * len(first)


def report_peak_bytes(run: Path, source: str, out: Path) -> int:
    args = ["report", str(run / source), "--out", str(out)]
    if source == "results.jsonl":
        args += ["--manifest", str(run / "manifest.json")]
    gc.collect()
    tracemalloc.start()
    try:
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["outcomes.jsonl", "results.jsonl"])
def test_report_peak_does_not_grow_per_auction(market_mix_corpora, tmp_path, source):
    small, large = market_mix_corpora[60], market_mix_corpora[600]
    if source == "results.jsonl":
        assert main(["detect", str(small)]) == 0
        assert main(["detect", str(large)]) == 0
    peaks = {run: report_peak_bytes(run, source, tmp_path / run.name) for run in (small, large)}
    growth = (peaks[large] - peaks[small]) / (600 - 60)
    assert growth < 1024, f"report's traced peak grows by {growth:.0f} bytes per auction"


@pytest.mark.parametrize("source", ["outcomes.jsonl", "results.jsonl"])
def test_reports_of_600_auctions_match_loop_reference(market_mix_corpora, source):
    """Groups of thousands of bids merge many sorted columns; their rows
    stay the loop reference's."""
    run = market_mix_corpora[600]
    if source == "results.jsonl":
        assert main(["detect", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    ranks = {site: meta["rank"] for site, meta in manifest["site_meta"].items()}
    records = load_records(run / source, ranks)
    reference = oracles.read_records_file(run / source, ranks)
    for name in REPORT_NAMES:
        for include_zero in (True, False):
            assert build_report(name, records, include_zero) == oracles.report_rows(name, reference, include_zero)
