"""Aggregation layer: percentile math against numpy, grouping invariants,
and the canned price/popularity distributions."""

import json
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hbarena import analytics
from hbarena.analytics import (
    StatsSummary,
    REPORT_NAMES,
    CSV_COLUMNS,
    Records,
    build_report,
    load_records,
    percentile,
    rank_bin_label,
    report_shares,
    report_values,
    write_report_json,
)
from hbarena.domain import ConfigurationError, compact_json, decimal_str, indented_json, quantize_cpm

D = Decimal


def load(rows, ranks=None):
    """Records of rows written to a JSONL file and read back; ``ranks`` is the manifest's site -> rank."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return load_records(path, ranks)


def summaries(name, rows, include_zero=True):
    """Each group's StatsSummary of a distribution report's exact values."""
    return {group: StatsSummary.of(values) for group, values in report_values(name, load(rows), include_zero).items()}


def shares(name, rows):
    """Each group's share of all HB sites, most sites first, as (group, sites, share)."""
    counts, total = report_shares(name, load(rows))
    return [(group, n, D(n) / D(total)) for group, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def facet_shares(rows):
    """Each HB facet's share of all HB sites."""
    return {facet: share for facet, _, share in shares("facet_breakdown", rows)}


def record(
    site="s1",
    facet="client_side",
    rank=1,
    partners=("p1",),
    bids=(),
    total="350",
    slots=1,
    round_index=0,
):
    """One ground-truth outcome row; its bids go into one slot per size."""
    by_size = {}
    for b in bids:
        b = dict(b)
        by_size.setdefault(b.pop("size"), []).append(b)
    return {"site_id": site, "rank": rank, "round_index": round_index, "facet": facet,
            "partner_ids": list(partners), "slot_count": slots, "total_latency_ms": total,
            "slots": [{"size": size, "bids": size_bids} for size, size_bids in by_size.items()]}


def bid(partner="p1", size="300x250", cpm="0.5", latency="100", late=False, channel="client"):
    """One outcome bid, with its slot's size; a latency is its arrival after a request at 0."""
    row = {"partner": partner, "size": size, "cpm": cpm, "late": late, "channel": channel}
    if latency is not None:
        row.update(requested_at_ms="0", arrived_at_ms=latency)
    return row


class TestPercentile:
    def test_median_of_three(self):
        assert percentile([D(100), D(200), D(300)], 50) == D(200)

    def test_single_value_all_percentiles(self):
        for q in (5, 25, 50, 75, 95):
            assert percentile([D(42)], q) == D(42)

    def test_interpolation(self):
        assert percentile([D(0), D(100)], 25) == D(25)

    @settings(max_examples=200)
    @given(
        values=st.lists(st.decimals(min_value=0, max_value=10_000, places=3), min_size=1, max_size=50),
        q=st.sampled_from([5, 25, 50, 75, 95]),
    )
    def test_matches_numpy_linear_interpolation(self, values, q):
        ours = percentile(values, q)
        numpy_value = np.percentile([float(v) for v in values], q, method="linear")
        assert float(ours) == pytest.approx(numpy_value, rel=1e-9, abs=1e-9)
        assert ours == oracles.percentile_linear(values, q)

    @given(values=st.lists(st.decimals(min_value=0, max_value=1000, places=3), min_size=1, max_size=40))
    def test_summary_sandwich_and_ordering(self, values):
        s = StatsSummary.of(values)
        assert min(values) <= s.p5 <= s.p25 <= s.p50 <= s.p75 <= s.p95 <= max(values)
        assert min(values) <= s.mean <= max(values)


class TestLatencyStats:
    def test_group_by_site(self):
        records = [record(site="a", total="100"), record(site="a", total="300", round_index=1)]
        stats = summaries("latency_by_site", records)
        assert stats["a"].p50 == D(200)

    def test_group_by_partner_uses_bid_latencies(self):
        records = [
            record(bids=[bid(partner="x", latency="100"), bid(partner="y", latency="250")]),
        ]
        stats = summaries("latency_by_partner", records)
        assert stats["x"].p50 == D(100)
        assert stats["y"].p50 == D(250)

    def test_zero_bid_filter(self):
        records = [record(total="3000", bids=[]), record(total="100", bids=[bid()], round_index=1)]
        assert summaries("latency_by_site", records)["s1"].count == 2
        assert summaries("latency_by_site", records, include_zero=False)["s1"].count == 1

    def test_rank_bins_of_500(self):
        assert rank_bin_label(1) == "1-500"
        assert rank_bin_label(500) == "1-500"
        assert rank_bin_label(501) == "501-1000"
        records = [record(rank=10, total="100"), record(site="s2", rank=700, total="900")]
        stats = summaries("latency_by_rank_bin", records)
        assert set(stats) == {"1-500", "501-1000"}

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            report_values("latency_by_nope", [])
        with pytest.raises(ValueError):
            report_values("facet_breakdown", [])
        with pytest.raises(ValueError):
            report_shares("latency_by_site", [])

    def test_empty_input_empty_map(self):
        assert report_values("latency_by_site", Records()) == {}

    def test_grouped_counts_sum_to_total(self):
        records = [
            record(
                site=f"s{i}",
                partners=tuple(f"p{j}" for j in range(1 + i % 3)),
                total=str(100 + i),
            )
            for i in range(30)
        ]
        stats = summaries("latency_by_partner_count", records)
        assert sum(s.count for s in stats.values()) == len(records)


class TestLateBids:
    def test_per_auction_fraction(self):
        records = [
            record(bids=[bid(late=True), bid(late=True), bid(), bid()]),
        ]
        stats = summaries("late_bid_fractions", records)
        assert stats["all_auctions"].p50 == D("0.5")

    def test_partner_always_late_is_100_percent(self):
        records = [record(bids=[bid(partner="slowpoke", late=True)]) for _ in range(5)]
        indicators = report_values("late_by_partner", load(records))["slowpoke"]
        stats = StatsSummary.of(indicators)
        assert (stats.count, sum(indicators), stats.mean) == (5, 5, D(1))

    def test_zero_bid_auctions_excluded(self):
        records = [record(bids=[])]
        assert report_values("late_bid_fractions", load(records)) == {}

    def test_server_channel_bids_do_not_dilute(self):
        records = [record(bids=[bid(late=True), bid(channel="ad_server", latency=None)])]
        stats = summaries("late_bid_fractions", records)
        assert stats["all_auctions"].p50 == D(1)


class TestPriceStats:
    def test_pinned_slot_size_medians(self):
        records = [
            record(bids=[bid(size="300x250", cpm="0.031")]),
            record(site="s2", bids=[bid(size="120x600", cpm="0.096")]),
            record(site="s3", bids=[bid(size="300x50", cpm="0.00084")]),
        ]
        stats = summaries("prices_by_slot_size", records)
        assert stats["300x250"].p50 == D("0.031")
        assert stats["120x600"].p50 == D("0.096")
        assert stats["300x50"].p50 == D("0.00084")
        medians = {k: s.p50 for k, s in stats.items()}
        assert max(medians, key=medians.get) == "120x600"
        assert min(medians, key=medians.get) == "300x50"

    def test_constant_bids_flat_percentiles(self):
        records = [record(bids=[bid(cpm="0.25") for _ in range(7)])]
        s = summaries("prices_by_slot_size", records)["300x250"]
        assert s.p5 == s.p25 == s.p50 == s.p75 == s.p95 == s.mean == D("0.25")

    def test_popularity_bins_of_ten(self):
        records = []
        for i in range(12):
            # partner p00 on every site; the rest on one site each
            records.append(
                record(
                    site=f"s{i}",
                    partners=("p00", f"q{i:02d}"),
                    bids=[bid(partner="p00", cpm="0.1"), bid(partner=f"q{i:02d}", cpm="0.9")],
                )
            )
        stats = summaries("prices_by_popularity_bin", records)
        assert set(stats) == {"1-10", "11-20"}
        assert stats["1-10"].count > stats["11-20"].count


    def test_group_of_many_columns_is_summarized_as_one(self):
        """A facet's prices lie in a column per (partner, size), equal values
        in several of them; a zero is an odd value, kept out of the columns."""
        cpms = ["0.25", "1.5", "3", "0.000001", "2.25", "1.5", "0.25", "7", "1.5"]
        rows, values = [], {}
        for site, facet in enumerate(["client_side", "hybrid"] * 4):
            bids = [bid(partner=f"p{i % 4}", size=("300x250", "728x90")[i // 4 % 2], cpm=cpms[(i + site) % len(cpms)])
                    for i in range(9)]
            if site == 1:
                bids.append(bid(partner="p2", cpm="0"))
            rows.append(record(site=f"s{site}", facet=facet, bids=bids))
            values.setdefault(facet, []).extend(D(b["cpm"]) for b in bids)
        records = load(rows)
        assert len([key for key in records.cpm if key[2] == "client_side"]) == 8
        expected = []
        for facet, exact in sorted(values.items()):
            s = StatsSummary.of(exact)
            expected.append({"group": facet, "count": s.count,
                             **{column: decimal_str(quantize_cpm(value)) for column, value in zip(CSV_COLUMNS[2:], s[1:])}})
        assert build_report("prices_by_facet", records) == expected
        assert expected[1]["count"] == 37 and expected[1]["p5"] == "0.000001"


class TestBreakdownAndPopularity:
    def test_breakdown_counts(self):
        records = (
            [record(site=f"c{i}", facet="client_side") for i in range(17)]
            + [record(site=f"s{i}", facet="server_side") for i in range(48)]
            + [record(site=f"h{i}", facet="hybrid") for i in range(35)]
        )
        breakdown = facet_shares(records)
        assert breakdown["client_side"] == D("0.17")
        assert breakdown["server_side"] == D("0.48")
        assert breakdown["hybrid"] == D("0.35")
        assert sum(breakdown.values()) == D(1)

    def test_all_client(self):
        records = [record(site=f"c{i}") for i in range(5)]
        assert facet_shares(records) == {"client_side": D(1)}

    def test_empty_breakdown(self):
        assert facet_shares([record(facet="waterfall_only")]) == {}
        assert report_shares("facet_breakdown", load([record(facet="waterfall_only")])) == ({}, 0)

    def test_breakdown_counts_each_site_by_its_last_round(self):
        records = [
            record(site="a", facet="hybrid"),
            record(site="a", facet="client_side", round_index=1),
            record(site="b", facet="hybrid"),
        ]
        rows = build_report("facet_breakdown", load(records))
        assert [(r["group"], r["count"], r["mean"]) for r in rows] == [
            ("client_side", 1, "0.5"),
            ("hybrid", 1, "0.5"),
        ]
        assert facet_shares(records) == {"client_side": D("0.5"), "hybrid": D("0.5")}

    def test_popularity_presence(self):
        records = [record(site=f"s{i}", partners=("x",) if i < 8 else ("y",)) for i in range(10)]
        assert shares("partner_popularity", records)[0] == ("x", 8, D("0.8"))
        assert shares("partner_combinations", records)[0] == ("x", 8, D("0.8"))

    def test_combinations_keyed_by_exact_set(self):
        records = [
            record(site="a", partners=("dfp",)),
            record(site="b", partners=("dfp",)),
            record(site="c", partners=("dfp", "criteo")),
        ]
        combinations = shares("partner_combinations", records)
        assert combinations[0][0] == "dfp"
        assert ("criteo+dfp", 1, D(1) / D(3)) == combinations[1]


class TestReports:
    def test_unknown_report_rejected(self):
        with pytest.raises(ValueError):
            build_report("latency_by_moon_phase", [])

    def test_facet_breakdown_rows_sum_to_one(self):
        records = [record(site=f"s{i}", facet=f) for i, f in enumerate(
            ["client_side"] * 2 + ["server_side"] * 5 + ["hybrid"] * 3
        )]
        rows = build_report("facet_breakdown", load(records))
        assert sum(D(r["mean"]) for r in rows) == D(1)

    def test_empty_input_yields_empty_rows(self):
        for name in ("latency_by_site", "prices_by_slot_size", "facet_breakdown"):
            assert build_report(name, Records()) == []


class TestLoadRecords:
    def test_json_numbers_read_like_strings(self):
        def row(cpm, latency, total):
            return {
                "site_id": "s1", "round_index": 0, "is_hb": True, "facet": "client_side",
                "partners": ["p1"], "hb_latency_ms": total,
                "auctions": [{"slot_id": "slot0", "size": "300x250", "bids": [
                    {"partner": "p1", "cpm": cpm, "latency_ms": latency, "late": False, "channel": "client"},
                    {"partner": "p2", "cpm": "0.25", "latency_ms": "80.125", "late": True, "channel": "client"},
                ]}],
            }
        numbers, strings = load([row(0.1, 120, 350.5)]), load([row("0.1", "120", "350.5")])
        for name in REPORT_NAMES:
            assert build_report(name, numbers) == build_report(name, strings), name
        assert report_values("prices_by_slot_size", numbers) == {"300x250": [D("0.1"), D("0.25")]}
        assert report_values("latency_by_site", numbers) == {"s1": [D("350.5")]}
        assert build_report("latency_by_site", numbers)[0]["mean"] == "350.5"

    def test_rows_off_the_quantum_give_the_same_reports(self):
        """A JSON number, more fraction digits than a price or time keeps,
        exponent form and 30 significant digits give the rows that the
        Decimal records gave, pinned here as the earlier code printed them."""
        def result_bid(partner, cpm, latency, late=False, channel="client"):
            return {"partner": partner, "cpm": cpm, "latency_ms": latency, "late": late, "channel": channel}
        rows = [
            {"site_id": "a", "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1", "p2"],
             "hb_latency_ms": "350.5", "auctions": [
                 {"size": "300x250", "bids": [result_bid("p1", 0.1, "120.1234"), result_bid("p2", "0.25", "80")]},
                 {"size": "728x90", "bids": [result_bid("p1", "0.1234567", "95.5", late=True),
                                             result_bid("p2", "1E+2", None, channel="ad_server")]},
                 {"size": "160x600", "bids": [result_bid("p1", "12.3456789012345678901234567890", "101")]}]},
            {"site_id": "b", "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1"],
             "hb_latency_ms": "123.456789012345678901234567891", "auctions": [
                 {"size": "300x250", "bids": [result_bid("p1", "3", "110.25"), result_bid("p1", "0.5", "99.0001")]}]},
        ]
        records = load(rows)
        pinned = {
            "prices_by_slot_size": [
                "160x600,1,12.345679,12.345679,12.345679,12.345679,12.345679,12.345679",
                "300x250,4,0.1225,0.2125,0.375,1.125,2.625,0.9625",
                "728x90,2,5.117284,25.092593,50.061728,75.030864,95.006173,50.061728",
            ],
            "prices_by_facet": ["client_side,7,0.107037,0.186728,0.5,7.672839,73.703704,16.617019"],
            "latency_by_partner": [
                "p1,5,96.20002,99.0001,101,110.25,118.14872,105.1747",
                "p2,1,80,80,80,80,80,80",
            ],
            "latency_by_site": [
                "a,1,350.5,350.5,350.5,350.5,350.5,350.5",
                "b,1,123.456789,123.456789,123.456789,123.456789,123.456789,123.456789",
            ],
            "late_by_partner": ["p1,5,0,0,0,0,0.8,0.2", "p2,1,0,0,0,0,0,0"],
        }
        for name, lines in pinned.items():
            assert [",".join(str(row[c]) for c in CSV_COLUMNS) for row in build_report(name, records)] == lines, name
        reference = oracles.read_records(rows)
        for name in REPORT_NAMES:
            assert build_report(name, records) == oracles.report_rows(name, reference), name

    def test_equal_values_that_print_differently_keep_file_order(self):
        """Of 21 values p5 is the second: where a -0 and a 0 fall in two
        columns of one group, the one later in the file is printed, as the
        earlier code printed it."""
        def row(site, size, total, bids):
            return {"site_id": site, "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1", "p2"],
                    "hb_latency_ms": total, "auctions": [{"size": size, "bids": [
                        {"partner": p, "cpm": cpm, "latency_ms": "100", "late": False, "channel": "client"}
                        for p, cpm in bids]}]}
        rows = [row("a", "300x250", "300", [("p1", "5"), ("p2", "-0"), ("p1", "0")]),
                row("b", "728x90", "300", [("p1", "5"), ("p2", "0"), ("p1", "-0")]),
                row("c", "300x250", "300", [("p2", "5")] * 18), row("c", "728x90", "300", [("p2", "5")] * 18),
                # One site's totals: -0 with no bids, then 0 with one.
                row("s", "160x600", "-0", []), row("s", "160x600", "0", [("p1", "1")]),
                *[row("s", "160x600", "5", [])] * 19]
        records = load(rows)
        lines = {name: [",".join(str(r[c]) for c in CSV_COLUMNS) for r in build_report(name, records)]
                 for name in ("prices_by_slot_size", "latency_by_site")}
        assert lines["prices_by_slot_size"] == ["160x600,1,1,1,1,1,1,1", "300x250,21,0,5,5,5,5,4.52381",
                                                "728x90,21,-0,5,5,5,5,4.52381"]
        assert lines["latency_by_site"][-1] == "s,21,0,5,5,5,5,4.52381"
        # Bid latencies: p1's two zeros come as -0 then 0, p2's as 0 then -0.
        timed = [{"site_id": "t", "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1", "p2"],
                  "hb_latency_ms": "300", "auctions": [{"size": "300x250", "bids": [
                      {"partner": p, "cpm": "1", "latency_ms": ms, "late": False, "channel": "client"}
                      for p, zeros in (("p1", ["-0", "0"]), ("p2", ["0", "-0"])) for ms in zeros + ["100"] * 19]}]}]
        assert [",".join(str(r[c]) for c in CSV_COLUMNS) for r in build_report("latency_by_partner", load(timed))] == [
            "p1,21,0,100,100,100,100,90.47619", "p2,21,-0,100,100,100,100,90.47619"]

    def test_a_time_of_true_is_unusable_after_a_time_of_1(self):
        """Each distinct bid time string is converted once per file; ``true``,
        equal to ``1`` as a key, must not find the time ``1`` converted before it."""
        rows = [{"site_id": f"s{i}", "round_index": 0, "is_hb": True, "facet": "client_side", "partners": ["p1"],
                 "hb_latency_ms": "300", "auctions": [{"size": "300x250", "bids": [
                     {"partner": "p1", "cpm": "1", "latency_ms": latency, "late": False, "channel": "client"}]}]}
                for i, latency in enumerate([1, "1", 1.0, True])]
        assert report_values("latency_by_partner", load(rows[:3])) == {"p1": [D(1)] * 3}
        with pytest.raises(ConfigurationError, match=r"rows.jsonl:4: unusable row"):
            load(rows)

    def test_more_distinct_times_than_the_cache_keeps_give_the_same_reports(self, monkeypatch):
        rows = [record(site=f"s{i}", partners=("p1", "p2"), bids=[bid(latency=f"{100 + i % 7}.5"),
                                                                  bid(partner="p2", latency=str(50 + i))])
                for i in range(30)]
        expected = {name: build_report(name, load(rows)) for name in REPORT_NAMES}
        monkeypatch.setattr(analytics, "_TIMES_KEPT", 4)
        assert {name: build_report(name, load(rows)) for name in REPORT_NAMES} == expected

    def test_outcome_bid_without_channel_is_a_client_bid_without_latency(self):
        rows = [record(bids=[bid(partner="p1", late=True), bid(partner="p2", latency="80")])]
        del rows[0]["slots"][0]["bids"][0]["channel"]
        records = load(rows)
        assert report_values("latency_by_partner", records) == {"p2": [D("80")]}
        assert report_values("late_by_partner", records) == {"p1": [D(1)], "p2": [D(0)]}
        assert report_values("late_bid_fractions", records) == {"all_auctions": [D("0.5")],
                                                                "auctions_with_late_bids": [D("0.5")]}


# Small value sets, so that groups hold duplicates and ties; now and then a
# value off the integer columns (more fraction digits, a negative zero or a
# JSON number).
PARTNER_POOL = tuple(f"p{i:02d}" for i in range(24))
SITES = st.sampled_from("abcdef")
amounts = st.one_of(
    st.sampled_from(["0", "-0", "0.5", "1.25", "7"]),
    st.integers(0, 8).flatmap(lambda places: st.decimals(min_value=0, max_value=50, places=places))
    .map(lambda d: str(abs(d))),
    st.sampled_from([0, 3, 0.25, 12.5]),
)
maybe_amounts = st.none() | amounts
bid_partners = st.sampled_from(PARTNER_POOL[:14])
sizes = st.sampled_from([None, "300x250", "728x90"])
channels = st.sampled_from(["client", "client", "ad_server"])
facets = st.sampled_from(["client_side", "server_side", "hybrid", "waterfall_only", "no_ads", None])
partner_lists = st.lists(st.sampled_from(PARTNER_POOL), max_size=14)


@st.composite
def outcome_rows(draw):
    facet = draw(facets)
    row = {"site_id": draw(SITES), "rank": draw(st.none() | st.integers(1, 1600)), "facet": facet,
           "partner_ids": draw(partner_lists), "slot_count": draw(st.integers(0, 3)),
           "total_latency_ms": draw(maybe_amounts)}
    if facet == "waterfall_only":
        row["tiers_tried"] = draw(st.lists(st.fixed_dictionaries(
            {"partner": bid_partners, "bid": maybe_amounts, "latency_ms": maybe_amounts}), max_size=4))
    else:
        # A bid without a channel counts as a client bid, but has no latency.
        outcome_bids = st.fixed_dictionaries({
            "partner": bid_partners, "cpm": amounts, "requested_at_ms": maybe_amounts,
            "arrived_at_ms": maybe_amounts, "late": st.booleans()}, optional={"channel": channels})
        row["slots"] = draw(st.lists(st.fixed_dictionaries(
            {"size": sizes, "bids": st.lists(outcome_bids, max_size=4)}), max_size=3))
    return row


result_bids = st.fixed_dictionaries({"partner": bid_partners, "cpm": amounts, "latency_ms": maybe_amounts,
                                     "late": st.booleans(), "channel": channels})
result_rows = st.fixed_dictionaries({
    "site_id": SITES, "round_index": st.integers(0, 2), "is_hb": st.booleans(), "facet": facets,
    "partners": partner_lists, "hb_latency_ms": maybe_amounts,
    "auctions": st.lists(st.fixed_dictionaries({"size": sizes, "bids": st.lists(result_bids, max_size=4)}),
                         max_size=3),
})
error_rows = st.builds(lambda site: {"site_id": site, "round_index": None, "error": "unreadable"}, SITES)


class TestReportsMatchLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(outcome_rows() | result_rows | error_rows, max_size=25),
           ranks=st.dictionaries(SITES, st.integers(1, 1600)), include_zero=st.booleans())
    def test_every_report(self, rows, ranks, include_zero):
        records = load(rows, ranks)
        reference = oracles.read_records(rows, ranks)
        assert len(records) == len(reference)
        for name in REPORT_NAMES:
            assert build_report(name, records, include_zero) == oracles.report_rows(name, reference, include_zero), name


_ROW_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\u00e9\u4e2d\U0001f600\n\t '), max_size=6)
_ROW_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), _ROW_TEXT,
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(reports=st.dictionaries(_ROW_TEXT, st.lists(st.dictionaries(_ROW_TEXT, _ROW_VALUES, max_size=8), max_size=4),
                               min_size=1, max_size=4))
def test_report_json_equals_indented_json_dump(tmp_path_factory, reports):
    """Written one report at a time, in name order; ``report`` always writes at least one."""
    path = tmp_path_factory.mktemp("report") / "report.json"
    names = sorted(reports)
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            write_report_json(fh, name, reports[name], i == 0, i == len(names) - 1)
    assert path.read_text(encoding="utf-8") == json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"


_JSON_VALUES = st.recursive(
    _ROW_VALUES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ROW_TEXT, inner, max_size=4), max_leaves=30
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES | st.dictionaries(_ROW_TEXT, st.dictionaries(_ROW_TEXT, _ROW_VALUES, max_size=3), max_size=4))
def test_indented_json_equals_indented_json_dump(value):
    """Nested values, such as the manifest's map of flat site maps, and empty containers."""
    assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)
    assert compact_json(value) == json.dumps(value, separators=(",", ":"))
