"""Aggregates ground-truth outcome rows or detector result rows into the
paper's reports, each one grouping of the records.

A distribution report groups exact values (latencies, late-bid fractions,
bid prices) and gives each group's percentiles and mean.  A share report
counts HB sites per group, and every cell of its row is that count over all
HB sites.

Percentiles use linear interpolation between closest ranks, computed in
Decimal so grouped reports are exact and byte-stable.  Rank bins are 500
sites wide, partner-popularity bins group 10 partners at a time.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal

from .domain import HB_FACETS, decimal_str, indented_json, quantize_cpm

RANK_BIN_WIDTH = 500
POPULARITY_BIN_WIDTH = 10

CSV_COLUMNS = ("group", "count", "p5", "p25", "p50", "p75", "p95", "mean")


@dataclass(slots=True)
class BidPoint:
    partner: str
    size: str | None
    cpm: Decimal
    latency_ms: Decimal | None
    late: bool
    channel: str


@dataclass(slots=True)
class AuctionRecord:
    """One auction round, normalized from either input schema."""

    site_id: str
    round_index: int
    facet: str | None
    is_hb: bool
    rank: int | None
    partner_ids: tuple[str, ...]
    bids: tuple[BidPoint, ...]
    total_latency_ms: Decimal | None
    slot_count: int


def _dec(value) -> Decimal | None:
    if value is None:
        return None
    return Decimal(value if isinstance(value, str) else str(value))


class _Shared(dict):
    """``shared[value]`` is the first equal value seen: JSON decoding makes a
    new ``str`` for every value, and the partner, size, channel and facet
    strings of one file are shared through this instead."""

    def __missing__(self, key):
        self[key] = key
        return key


def record_from_outcome_row(row: dict, shared: dict) -> AuctionRecord:
    facet = shared[row.get("facet")]
    bids = []
    if facet == "waterfall_only":
        for tier in row.get("tiers_tried", ()):
            if tier.get("bid") is not None:
                bids.append(BidPoint(shared[tier["partner"]], None, _dec(tier["bid"]), _dec(tier["latency_ms"]),
                                     False, "client"))
    else:
        for slot in row.get("slots", ()):
            size = shared[slot.get("size")]
            for bid in slot.get("bids", ()):
                latency = None
                if bid.get("channel") == "client":
                    arrived, requested = bid.get("arrived_at_ms"), bid.get("requested_at_ms")
                    if arrived is not None and requested is not None:
                        latency = _dec(arrived) - _dec(requested)
                bids.append(BidPoint(shared[bid["partner"]], size, _dec(bid["cpm"]), latency, bool(bid.get("late")),
                                     shared[bid.get("channel", "client")]))
    return AuctionRecord(
        site_id=row["site_id"],
        round_index=int(row.get("round_index", 0)),
        facet=facet,
        is_hb=facet in HB_FACETS,
        rank=int(row["rank"]) if row.get("rank") is not None else None,
        partner_ids=tuple([shared[p] for p in row.get("partner_ids", ())]),
        bids=tuple(bids),
        total_latency_ms=_dec(row.get("total_latency_ms")),
        slot_count=int(row.get("slot_count", 0)),
    )


def record_from_result_row(row: dict, shared: dict, rank_by_site: dict[str, int] | None = None) -> AuctionRecord:
    bids = []
    auctions = row.get("auctions", ())
    for auction in auctions:
        size = shared[auction.get("size")]
        for bid in auction.get("bids", ()):
            bids.append(BidPoint(shared[bid["partner"]], size, _dec(bid["cpm"]), _dec(bid.get("latency_ms")),
                                 bool(bid.get("late")), shared[bid.get("channel", "client")]))
    return AuctionRecord(
        site_id=row["site_id"],
        round_index=int(row.get("round_index", 0)),
        facet=shared[row.get("facet")],
        is_hb=bool(row.get("is_hb")),
        rank=rank_by_site.get(row["site_id"]) if rank_by_site else None,
        partner_ids=tuple([shared[p] for p in row.get("partners", ())]),
        bids=tuple(bids),
        total_latency_ms=_dec(row.get("hb_latency_ms")),
        slot_count=len(auctions),
    )


def load_records(path, rank_by_site: dict[str, int] | None = None) -> list[AuctionRecord]:
    """Read an outcomes or results JSONL file; the schema is sniffed per row."""
    records = []
    shared = _Shared()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            if "error" in row:
                continue
            if "is_hb" in row:
                records.append(record_from_result_row(row, shared, rank_by_site))
            else:
                records.append(record_from_outcome_row(row, shared))
    return records


def _sorted_percentile(data: list, q_pct: int) -> Decimal:
    n = len(data)
    if n == 1:
        return data[0]
    i, rem = divmod(q_pct * (n - 1), 100)
    i = int(i)
    if rem == 0:
        return data[i]
    return data[i] + (data[i + 1] - data[i]) * Decimal(rem) / Decimal(100)


def percentile(values, q_pct: int) -> Decimal:
    """q_pct-th percentile, linear interpolation between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty data")
    return _sorted_percentile(data, q_pct)


@dataclass(frozen=True)
class StatsSummary:
    count: int
    p5: Decimal
    p25: Decimal
    p50: Decimal
    p75: Decimal
    p95: Decimal
    mean: Decimal

    @classmethod
    def of(cls, values) -> "StatsSummary":
        data = sorted(values)
        if not data:
            raise ValueError("cannot summarize empty data")
        pct = _sorted_percentile
        return cls(len(data), pct(data, 5), pct(data, 25), pct(data, 50), pct(data, 75), pct(data, 95),
                   sum(data, Decimal(0)) / Decimal(len(data)))


def _bin_label(index: int, width: int) -> str:
    """The label of the ``width``-wide bin of 1-based positions that holds 0-based ``index``."""
    lo = index // width * width + 1
    return f"{lo}-{lo + width - 1}"


def rank_bin_label(rank: int) -> str:
    return _bin_label(rank - 1, RANK_BIN_WIDTH)


# Distribution groupings: (records, include_zero_bid_auctions) -> {group: exact values}.

def _total_latency_by(key_of):
    """Each auction's total latency under ``key_of(record)``; a None key
    leaves the auction out.  Auctions that drew no bids can be left out too,
    since a wrapper waiting on silence measures only its timeout."""
    def grouping(records, include_zero_bid_auctions):
        groups = defaultdict(list)
        for rec in records:
            if rec.total_latency_ms is not None and (include_zero_bid_auctions or rec.bids):
                key = key_of(rec)
                if key is not None:
                    groups[key].append(rec.total_latency_ms)
        return groups
    return grouping


def _bid_latency_by_partner(records, _):
    groups = defaultdict(list)
    for rec in records:
        for bid in rec.bids:
            if bid.latency_ms is not None:
                groups[bid.partner].append(bid.latency_ms)
    return groups


def _late_fractions(records, _):
    """Each auction's late share of its client bids; auctions without client
    bids are left out, to avoid 0/0."""
    groups = defaultdict(list)
    for rec in records:
        n_client = late = 0
        for bid in rec.bids:
            if bid.channel == "client":
                n_client += 1
                late += bid.late
        if n_client:
            fraction = Decimal(late) / Decimal(n_client)
            groups["all_auctions"].append(fraction)
            if late:
                groups["auctions_with_late_bids"].append(fraction)
    return groups


_ZERO, _ONE = Decimal(0), Decimal(1)


def _late_by_partner(records, _):
    """Each partner's client bids as 0/1 late indicators."""
    groups = defaultdict(list)
    for rec in records:
        for bid in rec.bids:
            if bid.channel == "client":
                groups[bid.partner].append(_ONE if bid.late else _ZERO)
    return groups


def _price_by_slot_size(records, _):
    groups = defaultdict(list)
    for rec in records:
        for bid in rec.bids:
            if bid.size is not None:
                groups[bid.size].append(bid.cpm)
    return groups


def _price_by_facet(records, _):
    groups = defaultdict(list)
    for rec in records:
        if rec.facet is not None and rec.bids:
            groups[rec.facet].extend([bid.cpm for bid in rec.bids])
    return groups


def _price_by_popularity_bin(records, _):
    """Partners ranked by HB-site presence, 10 to a bin."""
    presence = _partner_shares(records)[0]
    order = sorted(presence, key=lambda pid: (-presence[pid], pid))
    bin_of = {pid: _bin_label(i, POPULARITY_BIN_WIDTH) for i, pid in enumerate(order)}
    groups = defaultdict(list)
    for rec in records:
        for bid in rec.bids:
            key = bin_of.get(bid.partner)
            if key is not None:
                groups[key].append(bid.cpm)
    return groups


# Share groupings: records -> ({group: HB sites}, all HB sites).

def _facet_shares(records):
    """HB sites per facet, each site counted under the facet of its last HB round."""
    facet_by_site = {rec.site_id: rec.facet for rec in records if rec.is_hb and rec.facet}
    return Counter(facet_by_site.values()), len(facet_by_site)


def _hb_partners_by_site(records) -> dict[str, set[str]]:
    """Every partner seen on each HB site, over all its HB rounds."""
    partners_by_site: dict[str, set[str]] = {}
    for rec in records:
        if rec.is_hb:
            partners_by_site.setdefault(rec.site_id, set()).update(rec.partner_ids)
    return partners_by_site


def _partner_shares(records):
    """HB sites per partner seen on them."""
    partners_by_site = _hb_partners_by_site(records)
    return Counter(pid for pids in partners_by_site.values() for pid in pids), len(partners_by_site)


def _combination_shares(records):
    """HB sites per exact partner set, its partners sorted and joined by "+"."""
    partners_by_site = _hb_partners_by_site(records)
    return Counter("+".join(sorted(pids)) for pids in partners_by_site.values()), len(partners_by_site)


def _fmt(value: Decimal) -> str:
    return decimal_str(quantize_cpm(value))


def _stats_row(group: str, s: StatsSummary) -> dict:
    # Small groups repeat values across columns; format each distinct one once.
    text = {value: _fmt(value) for value in {s.p5, s.p25, s.p50, s.p75, s.p95, s.mean}}
    return {"group": group, "count": s.count, "p5": text[s.p5], "p25": text[s.p25], "p50": text[s.p50],
            "p75": text[s.p75], "p95": text[s.p95], "mean": text[s.mean]}


def _share_row(group: str, count: int, total: int) -> dict:
    text = _fmt(Decimal(count) / Decimal(total))
    return {"group": group, "count": count, **dict.fromkeys(CSV_COLUMNS[2:], text)}


def _by_group(row: dict):
    return row["group"]


def _by_number(row: dict):
    return (0, int(row["group"])) if row["group"].isdigit() else (1, row["group"])


def _by_bin_start(row: dict):
    return int(row["group"].split("-")[0])


def _most_first(row: dict):
    return (-row["count"], row["group"])


_DISTRIBUTIONS = {
    "latency_by_site": (_total_latency_by(lambda rec: rec.site_id), _by_group),
    "latency_by_partner": (_bid_latency_by_partner, _by_group),
    "latency_by_partner_count": (_total_latency_by(lambda rec: str(len(rec.partner_ids))), _by_number),
    "latency_by_slot_count": (_total_latency_by(lambda rec: str(rec.slot_count)), _by_number),
    "latency_by_rank_bin": (_total_latency_by(lambda rec: None if rec.rank is None else rank_bin_label(rec.rank)),
                            _by_bin_start),
    "late_bid_fractions": (_late_fractions, _by_group),
    "late_by_partner": (_late_by_partner, _by_group),
    "prices_by_slot_size": (_price_by_slot_size, _by_group),
    "prices_by_facet": (_price_by_facet, _by_group),
    "prices_by_popularity_bin": (_price_by_popularity_bin, _by_bin_start),
}
_SHARES = {
    "facet_breakdown": (_facet_shares, _by_group),
    "partner_popularity": (_partner_shares, _most_first),
    "partner_combinations": (_combination_shares, _most_first),
}
# Report name -> (grouping, row order): the one table every report is read through.
_REPORTS = {**_DISTRIBUTIONS, **_SHARES}

REPORT_NAMES = tuple(_REPORTS)


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown report {name!r}; valid names: {', '.join(table)}")
    return table[name]


def report_values(name: str, records: list[AuctionRecord], include_zero_bid_auctions: bool = True) -> dict:
    """The exact values behind each row of a distribution report, by group."""
    return dict(_lookup(_DISTRIBUTIONS, name)[0](records, include_zero_bid_auctions))


def report_shares(name: str, records: list[AuctionRecord]) -> tuple[dict[str, int], int]:
    """The HB-site count behind each row of a share report, by group, and the
    count of all HB sites it is a share of."""
    return _lookup(_SHARES, name)[0](records)


def build_report(
    name: str,
    records: list[AuctionRecord],
    include_zero_bid_auctions: bool = True,
) -> list[dict]:
    """Rows for one named report, in the fixed CSV column schema."""
    order = _lookup(_REPORTS, name)[1]
    if name in _SHARES:
        counts, total = report_shares(name, records)
        rows = [_share_row(group, count, total) for group, count in counts.items()]
    else:
        groups = report_values(name, records, include_zero_bid_auctions)
        rows = [_stats_row(group, StatsSummary.of(values)) for group, values in groups.items()]
    return sorted(rows, key=order)


def write_report_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_report_json(path, reports: dict[str, list[dict]]) -> None:
    """The text of ``json.dump({"reports": reports}, indent=2, sort_keys=True)`` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(indented_json({"reports": reports}) + "\n")
