"""Aggregates ground-truth outcome rows or detector result rows into the
paper's reports, each one grouping of the auctions.

``load_records`` reads a file once into integer columns: every time becomes
a whole number of µs and every price a whole number of micro-CPM, appended
to the column of the keys it can be grouped by.  A distribution report
merges the columns of each group and gives the group's percentiles and
mean.  A share report counts HB sites per group from facts kept per site,
and every cell of its row is that count over all HB sites.

Percentiles use linear interpolation between closest ranks, and each cell
becomes one exact ``Decimal``, so grouped reports are exact and byte-stable.
Rank bins are 500 sites wide, partner-popularity bins group 10 partners at a
time.
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal
from heapq import merge
from itertools import chain
from typing import NamedTuple

from .domain import HB_FACETS, ConfigurationError, decimal_str, json_chunks, quantize_cpm, read_json_lines

RANK_BIN_WIDTH = 500
POPULARITY_BIN_WIDTH = 10

CSV_COLUMNS = ("group", "count", "p5", "p25", "p50", "p75", "p95", "mean")

MS_SCALE = 3  # a time is kept as whole µs
CPM_SCALE = 6  # a price is kept as whole micro-CPM
_POW10 = tuple(10 ** k for k in range(19))
_LIMIT = Decimal(10) ** 22  # past it a report cell, at 6 fraction digits, needs over 28 digits


def _scaled(value, scale: int):
    """A JSON time or price as a whole number of ``10**-scale`` units that
    fits in 64 bits, or else as its exact ``Decimal``: more fraction digits,
    a negative zero or a huge value.  A value that is not a finite number
    below 10**22 in magnitude is a ValueError."""
    text = value if type(value) is str else str(value)
    whole, _, fraction = text.partition(".")
    digits = whole + fraction
    if digits.isdecimal() and len(fraction) <= scale and len(whole) <= 18 - scale:
        return int(digits) * _POW10[scale - len(fraction)]
    number = Decimal(text)
    if not number.is_finite() or abs(number) >= _LIMIT:
        raise ValueError(f"not a finite number below 10**22 in magnitude: {text}")
    sign, coefficient, exponent = number.as_tuple()
    if -scale <= exponent <= 18:
        units = int("".join(map(str, coefficient))) * 10 ** (exponent + scale)
        if units < 2 ** 63 and (units or not sign):
            return -units if sign else units
    return number


def _difference(a, b):
    """``a - b`` of two ``_scaled`` times, as ``_scaled`` would give it."""
    if type(a) is int and type(b) is int and -2 ** 63 <= a - b < 2 ** 63:
        return a - b
    return _scaled(str(_exact(a, MS_SCALE) - _exact(b, MS_SCALE)), MS_SCALE)


def _exact(value, scale: int | None) -> Decimal:
    """The ``Decimal`` of a ``_scaled`` value."""
    return Decimal(value).scaleb(-scale) if type(value) is int else value


class _Columns(dict):
    """Key -> the ``array('q')`` of nonzero whole ``10**-scale`` units filed
    under it (see ``_scaled``), sorted once loaded.  Every other value goes
    to ``odd`` as (key, exact ``Decimal``), in file order: a zero, which may
    print as 0 or -0, among them."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale
        self.odd: list[tuple] = []

    def __missing__(self, key):
        column = self[key] = array("q")
        return column

    def add(self, key, value) -> None:
        if value and type(value) is int:
            self[key].append(value)
        else:
            self.odd.append((key, _exact(value, self.scale)))

    def sort(self) -> None:
        for key, column in self.items():
            self[key] = array("q", sorted(column))


class Auction(NamedTuple):
    """One auction as ``Records`` iterates it: its bids as positions only."""

    bids: range


class Records:
    """What ``report`` keeps of an outcomes or results file: columns of
    exact values keyed by what they are grouped by, and facts per HB site.
    Its length is the number of auctions read."""

    def __init__(self):
        # Each auction's total latency in µs, keyed (partner count, slot
        # count, rank bin or None, drew bids), and keyed (site, drew bids).
        self.total_latency = _Columns(MS_SCALE)
        self.site_latency = _Columns(MS_SCALE)
        self.bid_latency = _Columns(MS_SCALE)  # µs, keyed by partner
        self.cpm = _Columns(CPM_SCALE)  # micro-CPM, keyed (partner, slot size, auction facet)
        self.client_bids: dict[str, list[int]] = {}  # partner -> [client bids, late ones]
        # (late client bids, client bids) -> auctions, over auctions with client bids
        self.late_counts: Counter = Counter()
        # HB site -> (facet of its last HB round that names one, partners of all its HB rounds)
        self.hb_sites: dict = {}
        self.bid_counts = array("I")

    def __len__(self) -> int:
        return len(self.bid_counts)

    def __iter__(self):
        return (Auction(range(n)) for n in self.bid_counts)


def _bin_label(index: int, width: int) -> str:
    """The label of the ``width``-wide bin of 1-based positions that holds 0-based ``index``."""
    lo = index // width * width + 1
    return f"{lo}-{lo + width - 1}"


def rank_bin_label(rank: int) -> str:
    if rank < 1:
        raise ValueError(f"rank {rank} is below 1")
    return _bin_label(rank - 1, RANK_BIN_WIDTH)


class _Shared(dict):
    """``shared[value]`` is the first equal value seen: each equal string, key
    or partner set of a file is kept once, not once per decoded row.  A value
    of another type, such as a number, would not sort among them: a TypeError."""

    def __missing__(self, key):
        if not isinstance(key, (str, type(None), tuple, frozenset)):
            raise TypeError(f"{key!r} is not a string")
        self[key] = key
        return key


class _Loader:
    """Files one row at a time into ``Records``.  ``one(value)`` is the
    first equal value seen, so each partner, size, facet, key and partner
    set of a file is stored once."""

    def __init__(self, records: Records):
        self.records = records
        self.one = _Shared().__getitem__

    def auction(self, site_id, facet, is_hb, partners, total, slot_count, rank, bids) -> None:
        """``bids`` yields (partner, size, cpm, latency or None, late, channel)."""
        rec, one = self.records, self.one
        add_cpm, add_latency, client_bids = rec.cpm.add, rec.bid_latency.add, rec.client_bids
        n_bids = n_client = n_late = 0
        for partner, size, cpm, latency, late, channel in bids:
            if partner is None:
                raise TypeError("a bid's partner is null")
            partner = one(partner)
            n_bids += 1
            add_cpm((partner, size, facet), _scaled(cpm, CPM_SCALE))
            if latency is not None:
                add_latency(partner, latency)
            if channel == "client":
                n_client += 1
                n_late += late
                tally = client_bids.get(partner)
                if tally is None:
                    tally = client_bids[partner] = [0, 0]
                tally[0] += 1
                tally[1] += late
        rec.bid_counts.append(n_bids)
        if n_client:
            rec.late_counts[(n_late, n_client)] += 1
        if total is not None:
            total = _scaled(total, MS_SCALE)
            rank_bin = None if rank is None else rank_bin_label(rank)
            rec.total_latency.add(one((str(len(partners)), str(slot_count), rank_bin, n_bids > 0)), total)
            rec.site_latency.add((site_id, n_bids > 0), total)
        if is_hb:
            last_facet, seen = rec.hb_sites.get(site_id, (None, frozenset()))
            rec.hb_sites[site_id] = one((facet or last_facet, one(seen.union(map(one, partners)))))

    def outcome_row(self, row: dict) -> None:
        facet = self.one(row.get("facet"))
        if facet == "waterfall_only":
            bids = ((tier["partner"], None, tier["bid"],
                     None if tier["latency_ms"] is None else _scaled(tier["latency_ms"], MS_SCALE), False, "client")
                    for tier in row.get("tiers_tried", ()) if tier.get("bid") is not None)
        else:
            bids = self._slot_bids(row)
        rank = row.get("rank")
        self.auction(row["site_id"], facet, facet in HB_FACETS, row.get("partner_ids", ()),
                     row.get("total_latency_ms"), int(row.get("slot_count", 0)),
                     None if rank is None else int(rank), bids)

    def _slot_bids(self, row: dict):
        for slot in row.get("slots", ()):
            size = self.one(slot.get("size"))
            for bid in slot.get("bids", ()):
                latency = None
                if bid.get("channel") == "client":
                    arrived, requested = bid.get("arrived_at_ms"), bid.get("requested_at_ms")
                    if arrived is not None and requested is not None:
                        latency = _difference(_scaled(arrived, MS_SCALE), _scaled(requested, MS_SCALE))
                yield bid["partner"], size, bid["cpm"], latency, bool(bid.get("late")), bid.get("channel", "client")

    def result_row(self, row: dict, rank_by_site: dict[str, int] | None) -> None:
        site_id = row["site_id"]
        self.auction(site_id, self.one(row.get("facet")), bool(row.get("is_hb")), row.get("partners", ()),
                     row.get("hb_latency_ms"), len(row.get("auctions", ())),
                     rank_by_site.get(site_id) if rank_by_site else None, self._result_bids(row))

    def _result_bids(self, row: dict):
        for auction in row.get("auctions", ()):
            size = self.one(auction.get("size"))
            for bid in auction.get("bids", ()):
                latency = bid.get("latency_ms")
                yield (bid["partner"], size, bid["cpm"], None if latency is None else _scaled(latency, MS_SCALE),
                       bool(bid.get("late")), bid.get("channel", "client"))


def load_records(path, rank_by_site: dict[str, int] | None = None) -> Records:
    """Read an outcomes or results JSONL file; the schema is sniffed per row.
    Error rows are skipped; a file that cannot be opened, or a line that is
    not a JSON object with a string ``site_id`` and usable fields, raises
    ``ConfigurationError``."""
    records = Records()
    loader = _Loader(records)
    for line_no, row in read_json_lines(path):
        if "error" in row:
            continue
        if not isinstance(row.get("site_id"), str):
            raise ConfigurationError(f"{path}:{line_no}: no string site_id")
        try:
            if "is_hb" in row:
                loader.result_row(row, rank_by_site)
            else:
                loader.outcome_row(row)
        except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}:{line_no}: unusable row ({type(exc).__name__}: {exc})") from None
    for columns in (records.total_latency, records.site_latency, records.bid_latency, records.cpm):
        columns.sort()
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


_PERCENTILES = (5, 25, 50, 75, 95)


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
        return cls(len(data), *[_sorted_percentile(data, q) for q in _PERCENTILES],
                   sum(data, Decimal(0)) / Decimal(len(data)))

    @classmethod
    def of_units(cls, data: list[int], scale: int) -> "StatsSummary":
        """The summary of sorted whole ``10**-scale`` units, equal to ``of``
        over their Decimals: an interpolated percentile ``k_i + Δk·rem/100``
        is exact in units of ``10**-(scale + 2)``, and the mean is the same
        one division of the exact sum.  Fewer than 10**9 values of 64 bits
        keep every sum below 28 digits, where ``of``'s sum is exact too."""
        n = len(data)
        cells = []
        for q in _PERCENTILES:
            i, rem = divmod(q * (n - 1), 100)
            if rem:
                cells.append(Decimal(100 * data[i] + (data[i + 1] - data[i]) * rem).scaleb(-scale - 2))
            else:
                cells.append(Decimal(data[i]).scaleb(-scale))
        return cls(n, *cells, Decimal(sum(data)) / Decimal(n * _POW10[scale]))


# Distribution groupings: (records, include_zero_bid_auctions) ->
# ((group, the sorted columns it merges) pairs, the scale of their whole units).

def _merged(columns: _Columns, group_of):
    """The columns of each ``group_of(key)``, then its odd values as one-value
    columns in file order; a None group leaves the key out."""
    groups = defaultdict(list)
    for key, column in chain(columns.items(), ((key, (value,)) for key, value in columns.odd)):
        group = group_of(key)
        if group is not None:
            groups[group].append(column)
    return groups.items()


# Auctions that drew no bids can be left out of latency groupings, since a
# wrapper waiting on silence measures only its timeout.

def _total_latency_by(table: str, part: int):
    """Each auction's total latency under one part of its key in ``table``."""
    def grouping(records, include_zero_bid_auctions):
        return _merged(getattr(records, table),
                       lambda key: key[part] if include_zero_bid_auctions or key[-1] else None), MS_SCALE
    return grouping


def _bid_latency_by_partner(records, _):
    return _merged(records.bid_latency, lambda partner: partner), MS_SCALE


def _late_fractions(records, _):
    """Each auction's late share of its client bids; auctions without client
    bids are left out, to avoid 0/0."""
    groups = defaultdict(list)
    for (late, n_client), auctions in records.late_counts.items():
        fractions = [Decimal(late) / Decimal(n_client)] * auctions
        groups["all_auctions"].append(fractions)
        if late:
            groups["auctions_with_late_bids"].append(fractions)
    return groups.items(), None


def _late_by_partner(records, _):
    """Each partner's client bids as 0/1 late indicators, in order."""
    zero, one = array("q", [0]), array("q", [1])
    return ((partner, [zero * (n - late) + one * late]) for partner, (n, late) in records.client_bids.items()), 0


def _price_by(part: int):
    return lambda records, _: (_merged(records.cpm, lambda key: key[part]), CPM_SCALE)


def _price_by_popularity_bin(records, _):
    """Partners ranked by HB-site presence, 10 to a bin."""
    presence = _partner_shares(records)[0]
    order = sorted(presence, key=lambda pid: (-presence[pid], pid))
    bin_of = {pid: _bin_label(i, POPULARITY_BIN_WIDTH) for i, pid in enumerate(order)}
    return _merged(records.cpm, lambda key: bin_of.get(key[0])), CPM_SCALE


# Share groupings: records -> ({group: HB sites}, all HB sites).

def _facet_shares(records):
    """HB sites per facet, each site counted under the facet of its last HB round."""
    counts = Counter(facet for facet, _ in records.hb_sites.values() if facet)
    return counts, sum(counts.values())


def _partner_shares(records):
    """HB sites per partner seen on them."""
    sites = records.hb_sites.values()
    return Counter(pid for _, pids in sites for pid in pids), len(sites)


def _combination_shares(records):
    """HB sites per exact partner set, its partners sorted and joined by "+"."""
    sites = records.hb_sites.values()
    return Counter("+".join(sorted(pids)) for _, pids in sites), len(sites)


def _fmt(value: Decimal) -> str:
    return decimal_str(quantize_cpm(value))


def _flat_row(group: str, count: int, value: Decimal) -> dict:
    return {"group": group, "count": count, **dict.fromkeys(CSV_COLUMNS[2:], _fmt(value))}


def _decimals(columns: list, scale: int | None) -> list[Decimal]:
    """A group's exact values in ascending order.  ``_merged`` puts odd values
    last, in file order, and the sort is stable, so of equal values that
    print differently (0 and -0, always odd) the earlier in the file comes first."""
    return sorted([_exact(value, scale) for column in columns for value in column])


def _stats_row(group: str, columns: list, scale: int | None) -> dict:
    if not all(type(column) is array for column in columns):
        s = StatsSummary.of(_decimals(columns, scale))
    else:
        data = array("q", merge(*columns)) if len(columns) > 1 else columns[0]
        if len(data) == 1:
            return _flat_row(group, 1, Decimal(data[0]).scaleb(-scale))
        s = StatsSummary.of_units(data, scale)
    return {"group": group, "count": s.count, "p5": _fmt(s.p5), "p25": _fmt(s.p25), "p50": _fmt(s.p50),
            "p75": _fmt(s.p75), "p95": _fmt(s.p95), "mean": _fmt(s.mean)}


def _by_group(row: dict):
    return row["group"]


def _by_number(row: dict):
    return (0, int(row["group"])) if row["group"].isdigit() else (1, row["group"])


def _by_bin_start(row: dict):
    return int(row["group"].split("-")[0])


def _most_first(row: dict):
    return (-row["count"], row["group"])


_DISTRIBUTIONS = {
    "latency_by_site": (_total_latency_by("site_latency", 0), _by_group),
    "latency_by_partner": (_bid_latency_by_partner, _by_group),
    "latency_by_partner_count": (_total_latency_by("total_latency", 0), _by_number),
    "latency_by_slot_count": (_total_latency_by("total_latency", 1), _by_number),
    "latency_by_rank_bin": (_total_latency_by("total_latency", 2), _by_bin_start),
    "late_bid_fractions": (_late_fractions, _by_group),
    "late_by_partner": (_late_by_partner, _by_group),
    "prices_by_slot_size": (_price_by(1), _by_group),
    "prices_by_facet": (_price_by(2), _by_group),
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


def report_values(name: str, records: Records, include_zero_bid_auctions: bool = True) -> dict:
    """The exact values behind each row of a distribution report, by group, in ascending order."""
    groups, scale = _lookup(_DISTRIBUTIONS, name)[0](records, include_zero_bid_auctions)
    return {group: _decimals(columns, scale) for group, columns in groups}


def report_shares(name: str, records: Records) -> tuple[dict[str, int], int]:
    """The HB-site count behind each row of a share report, by group, and the
    count of all HB sites it is a share of."""
    return _lookup(_SHARES, name)[0](records)


def build_report(
    name: str,
    records: Records,
    include_zero_bid_auctions: bool = True,
) -> list[dict]:
    """Rows for one named report, in the fixed CSV column schema."""
    order = _lookup(_REPORTS, name)[1]
    if name in _SHARES:
        counts, total = report_shares(name, records)
        rows = [_flat_row(group, count, Decimal(count) / Decimal(total)) for group, count in counts.items()]
    else:
        groups, scale = _DISTRIBUTIONS[name][0](records, include_zero_bid_auctions)
        rows = [_stats_row(group, columns, scale) for group, columns in groups]
    return sorted(rows, key=order)


def write_report_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_report_json(path, reports: dict[str, list[dict]]) -> None:
    """The text of ``json.dump({"reports": reports}, indent=2, sort_keys=True)`` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_chunks({"reports": reports}))
        fh.write("\n")
