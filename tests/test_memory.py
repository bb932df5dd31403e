"""Memory that grows with the input only where the output needs it.

``detect`` writes each result row as it comes, so its traced peak must not
grow by a result row per trace; ``load_records`` keeps one copy of each
repeated string.
"""

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from hbarena.analytics import load_records
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
    run = market_mix_corpora[60]
    if source == "results.jsonl":
        assert main(["detect", str(run)]) == 0
    records = load_records(run / source)
    by_value: dict[str, str] = {}
    seen = 0
    for rec in records:
        for partner in [*rec.partner_ids, *(bid.partner for bid in rec.bids)]:
            first = by_value.setdefault(partner, partner)
            assert first is partner, partner
            seen += 1
    assert seen > 2 * len(by_value)
