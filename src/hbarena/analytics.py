"""Aggregates ground-truth outcome rows or detector result rows into the
measurement dimensions used in reporting: latency distributions, late-bid
shares, bid prices, facet breakdown, and partner popularity.

Percentiles use linear interpolation between closest ranks, computed in
Decimal so grouped reports are exact and byte-stable.  Rank bins are 500
sites wide, partner-popularity bins group 10 partners at a time.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable

from .domain import HB_FACETS, decimal_str, quantize_cpm

RANK_BIN_WIDTH = 500
POPULARITY_BIN_WIDTH = 10

LATENCY_GROUPS = ("site", "partner", "partner_count", "slot_count", "rank_bin")
PRICE_GROUPS = ("slot_size", "facet", "partner_popularity_bin")

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


def _percentile_of_sorted(data: list, q_pct: int) -> Decimal:
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
    return _percentile_of_sorted(data, q_pct)


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
        return cls._of_sorted(data, sum(data, Decimal(0)))

    @classmethod
    def _of_sorted(cls, data: list, total: Decimal) -> "StatsSummary":
        """Summary of non-empty, already sorted values whose sum is ``total``."""
        pct = _percentile_of_sorted
        return cls(len(data), pct(data, 5), pct(data, 25), pct(data, 50), pct(data, 75), pct(data, 95),
                   total / Decimal(len(data)))


def _summarize_groups(groups: dict[str, list[Decimal]]) -> dict[str, StatsSummary]:
    return {key: StatsSummary.of(vals) for key, vals in groups.items() if vals}


def rank_bin_label(rank: int) -> str:
    lo = ((rank - 1) // RANK_BIN_WIDTH) * RANK_BIN_WIDTH + 1
    return f"{lo}-{lo + RANK_BIN_WIDTH - 1}"


# Per-auction latency groupings: the record's group key, or None to leave it out.
_AUCTION_KEYS = {
    "site": lambda rec: rec.site_id,
    "partner_count": lambda rec: str(len(rec.partner_ids)),
    "slot_count": lambda rec: str(rec.slot_count),
    "rank_bin": lambda rec: None if rec.rank is None else rank_bin_label(rec.rank),
}


def latency_stats(
    records: Iterable[AuctionRecord],
    group_by: str,
    include_zero_bid_auctions: bool = True,
) -> dict[str, StatsSummary]:
    """Latency distributions grouped one of five ways.

    Per-auction groupings use the auction's total latency; the partner
    grouping uses per-bid response times.  Auctions that drew no bids can be
    filtered out, since a wrapper waiting on silence measures only its
    timeout.
    """
    if group_by not in LATENCY_GROUPS:
        raise ValueError(f"unknown latency grouping {group_by!r}; expected one of {LATENCY_GROUPS}")
    groups: dict[str, list[Decimal]] = defaultdict(list)
    if group_by == "partner":
        for rec in records:
            for bid in rec.bids:
                if bid.latency_ms is not None:
                    groups[bid.partner].append(bid.latency_ms)
        return _summarize_groups(groups)
    key_of = _AUCTION_KEYS[group_by]
    for rec in records:
        if rec.total_latency_ms is None or not (include_zero_bid_auctions or rec.bids):
            continue
        key = key_of(rec)
        if key is not None:
            groups[key].append(rec.total_latency_ms)
    return _summarize_groups(groups)


@dataclass(frozen=True)
class LateBidStats:
    per_auction: StatsSummary | None
    per_auction_with_late: StatsSummary | None
    per_partner: dict[str, tuple[int, int, Decimal]]  # partner -> (bids, late, fraction)


def late_bid_stats(records: Iterable[AuctionRecord]) -> LateBidStats:
    """Late-bid shares: per-auction fraction distribution (auctions with no
    bids are excluded to avoid 0/0) and per-partner late percentage."""
    fractions: list[Decimal] = []
    with_late: list[Decimal] = []
    partner_totals: dict[str, list[int]] = {}
    for rec in records:
        n_client = late = 0
        for bid in rec.bids:
            if bid.channel != "client":
                continue
            n_client += 1
            tally = partner_totals.get(bid.partner)
            if tally is None:
                tally = partner_totals[bid.partner] = [0, 0]
            tally[0] += 1
            if bid.late:
                late += 1
                tally[1] += 1
        if n_client:
            fraction = Decimal(late) / Decimal(n_client)
            fractions.append(fraction)
            if late:
                with_late.append(fraction)
    per_partner = {
        pid: (total, late, Decimal(late) / Decimal(total))
        for pid, (total, late) in partner_totals.items()
    }
    return LateBidStats(
        per_auction=StatsSummary.of(fractions) if fractions else None,
        per_auction_with_late=StatsSummary.of(with_late) if with_late else None,
        per_partner=per_partner,
    )


def _hb_partners_by_site(records: Iterable[AuctionRecord]) -> dict[str, set[str]]:
    """Every partner seen on each HB site, over all its HB rounds."""
    partners_by_site: dict[str, set[str]] = {}
    for rec in records:
        if rec.is_hb:
            partners_by_site.setdefault(rec.site_id, set()).update(rec.partner_ids)
    return partners_by_site


def _site_presence(partners_by_site: dict[str, set[str]]) -> dict[str, int]:
    presence: dict[str, int] = {}
    for pids in partners_by_site.values():
        for pid in pids:
            presence[pid] = presence.get(pid, 0) + 1
    return presence


def _popularity_bins(records: Iterable[AuctionRecord]) -> dict[str, str]:
    """Partner -> its popularity bin, partners ranked by HB site presence."""
    presence = _site_presence(_hb_partners_by_site(records))
    order = sorted(presence, key=lambda pid: (-presence[pid], pid))
    bins = {}
    for i, pid in enumerate(order):
        lo = (i // POPULARITY_BIN_WIDTH) * POPULARITY_BIN_WIDTH + 1
        bins[pid] = f"{lo}-{lo + POPULARITY_BIN_WIDTH - 1}"
    return bins


def price_stats(records: Iterable[AuctionRecord], group_by: str) -> dict[str, StatsSummary]:
    """Bid-price distributions by slot size ("WxH"), facet, or partner
    popularity bin (partners ranked by site presence, 10 per bin)."""
    if group_by not in PRICE_GROUPS:
        raise ValueError(f"unknown price grouping {group_by!r}; expected one of {PRICE_GROUPS}")
    groups: dict[str, list[Decimal]] = defaultdict(list)
    if group_by == "slot_size":
        for rec in records:
            for bid in rec.bids:
                if bid.size is not None:
                    groups[bid.size].append(bid.cpm)
    elif group_by == "facet":
        for rec in records:
            if rec.facet is not None and rec.bids:
                groups[rec.facet].extend([bid.cpm for bid in rec.bids])
    else:
        records = list(records)
        bin_of = _popularity_bins(records)
        for rec in records:
            for bid in rec.bids:
                key = bin_of.get(bid.partner)
                if key is not None:
                    groups[key].append(bid.cpm)
    return _summarize_groups(groups)


def _hb_facet_counts(records: Iterable[AuctionRecord]) -> dict[str, int]:
    """HB sites per facet, each site counted under the facet of its last HB round."""
    facet_by_site: dict[str, str] = {}
    for rec in records:
        if rec.is_hb and rec.facet:
            facet_by_site[rec.site_id] = rec.facet
    counts: dict[str, int] = {}
    for facet in facet_by_site.values():
        counts[facet] = counts.get(facet, 0) + 1
    return dict(sorted(counts.items()))


def facet_breakdown(records: Iterable[AuctionRecord]) -> dict[str, Decimal]:
    """Proportion of each HB facet among sites detected as HB."""
    counts = _hb_facet_counts(records)
    total = Decimal(sum(counts.values()))
    return {facet: Decimal(n) / total for facet, n in counts.items()}


@dataclass(frozen=True)
class PopularityReport:
    hb_sites: int
    presence: dict[str, tuple[int, Decimal]]  # partner -> (sites, fraction)
    combinations: list[tuple[str, int, Decimal]]  # sorted most frequent first


def partner_popularity_and_combinations(records: Iterable[AuctionRecord]) -> PopularityReport:
    """Per-partner site presence and the frequency-ranked exact partner sets."""
    partners_by_site = _hb_partners_by_site(records)
    total = len(partners_by_site)
    combo_counts: dict[str, int] = {}
    for pids in partners_by_site.values():
        combo = "+".join(sorted(pids))
        combo_counts[combo] = combo_counts.get(combo, 0) + 1
    presence = {
        pid: (n, Decimal(n) / Decimal(total)) for pid, n in _site_presence(partners_by_site).items()
    }
    combinations = [
        (combo, n, Decimal(n) / Decimal(total))
        for combo, n in sorted(combo_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return PopularityReport(hb_sites=total, presence=presence, combinations=combinations)


def _fmt(value: Decimal) -> str:
    return decimal_str(quantize_cpm(value))


def _stats_row(group: str, s: StatsSummary) -> dict:
    # Small groups repeat values across columns; format each distinct one once.
    text = {value: _fmt(value) for value in {s.p5, s.p25, s.p50, s.p75, s.p95, s.mean}}
    return {"group": group, "count": s.count, "p5": text[s.p5], "p25": text[s.p25], "p50": text[s.p50],
            "p75": text[s.p75], "p95": text[s.p95], "mean": text[s.mean]}


def _flat_row(group: str, count: int, value: Decimal) -> dict:
    text = _fmt(value)
    return {"group": group, "count": count, "p5": text, "p25": text, "p50": text,
            "p75": text, "p95": text, "mean": text}


_ZERO, _ONE = Decimal(0), Decimal(1)


def _latency_rows(group_by: str):
    return lambda records, include_zero: [
        _stats_row(k, s) for k, s in latency_stats(records, group_by, include_zero).items()
    ]


def _price_rows(group_by: str):
    return lambda records, _: [_stats_row(k, s) for k, s in price_stats(records, group_by).items()]


def _late_fraction_rows(records, _) -> list[dict]:
    late = late_bid_stats(records)
    rows = []
    if late.per_auction:
        rows.append(_stats_row("all_auctions", late.per_auction))
    if late.per_auction_with_late:
        rows.append(_stats_row("auctions_with_late_bids", late.per_auction_with_late))
    return rows


def _late_partner_rows(records, _) -> list[dict]:
    # Each partner's bids as 0/1 late indicators, already sorted: the zeros first.
    return [
        _stats_row(pid, StatsSummary._of_sorted([_ZERO] * (total - late) + [_ONE] * late, Decimal(late)))
        for pid, (total, late, _fraction) in late_bid_stats(records).per_partner.items()
    ]


def _facet_rows(records, _) -> list[dict]:
    counts = _hb_facet_counts(records)
    total = Decimal(sum(counts.values()))
    return [_flat_row(facet, n, Decimal(n) / total) for facet, n in counts.items()]


def _popularity_rows(records, _) -> list[dict]:
    presence = partner_popularity_and_combinations(records).presence
    return [_flat_row(pid, sites, fraction) for pid, (sites, fraction) in presence.items()]


def _combination_rows(records, _) -> list[dict]:
    combinations = partner_popularity_and_combinations(records).combinations
    return [_flat_row(combo, n, fraction) for combo, n, fraction in combinations]


def _by_group(row: dict):
    return row["group"]


def _by_number(row: dict):
    return (0, int(row["group"])) if row["group"].isdigit() else (1, row["group"])


def _by_bin_start(row: dict):
    return int(row["group"].split("-")[0])


def _most_first(row: dict):
    return (-row["count"], row["group"])


# Report name -> (rows builder(records, include_zero_bid_auctions), row order).
_REPORTS = {
    "latency_by_site": (_latency_rows("site"), _by_group),
    "latency_by_partner": (_latency_rows("partner"), _by_group),
    "latency_by_partner_count": (_latency_rows("partner_count"), _by_number),
    "latency_by_slot_count": (_latency_rows("slot_count"), _by_number),
    "latency_by_rank_bin": (_latency_rows("rank_bin"), _by_bin_start),
    "late_bid_fractions": (_late_fraction_rows, _by_group),
    "late_by_partner": (_late_partner_rows, _by_group),
    "prices_by_slot_size": (_price_rows("slot_size"), _by_group),
    "prices_by_facet": (_price_rows("facet"), _by_group),
    "prices_by_popularity_bin": (_price_rows("partner_popularity_bin"), _by_bin_start),
    "facet_breakdown": (_facet_rows, _by_group),
    "partner_popularity": (_popularity_rows, _most_first),
    "partner_combinations": (_combination_rows, _most_first),
}

REPORT_NAMES = tuple(_REPORTS)


def build_report(
    name: str,
    records: list[AuctionRecord],
    include_zero_bid_auctions: bool = True,
) -> list[dict]:
    """Rows for one named report, in the fixed CSV column schema."""
    if name not in _REPORTS:
        raise ValueError(f"unknown report {name!r}; valid names: {', '.join(REPORT_NAMES)}")
    rows_of, order = _REPORTS[name]
    return sorted(rows_of(records, include_zero_bid_auctions), key=order)


def write_report_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# json.dump's indent= falls back to the pure-Python encoder; the C one writes
# each flat row, and this separator puts every key after the first on its own
# line at the row's indent.
_ROW_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": "))


def _json_row(row: dict) -> str:
    text = _ROW_JSON.encode(row)
    return "      {\n        " + text[1:-1] + "\n      }" if row else "      {}"


def write_report_json(path, reports: dict[str, list[dict]]) -> None:
    """The text of ``json.dump({"reports": reports}, indent=2, sort_keys=True)``
    and a newline; every row is a flat map of scalars."""
    entries = [
        f"    {_ROW_JSON.encode(name)}: " + ("[\n" + ",\n".join(map(_json_row, rows)) + "\n    ]" if rows else "[]")
        for name, rows in sorted(reports.items())
    ]
    body = "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "reports": ' + body + "\n}\n")
