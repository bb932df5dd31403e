"""Aggregates ground-truth outcome rows or detector result rows into the
paper's reports, each one grouping of the auctions.

``load_records`` reads a file once into integer columns: every time becomes
a whole number of µs and every price a whole number of micro-CPM, appended
to the column of the keys it can be grouped by.  A distribution report
sorts the values of each group's columns in one sort and gives the group's
percentiles and mean.  A share report counts HB sites per group from facts
kept per site, and every cell of its row is that count over all HB sites.

Percentiles use linear interpolation between closest ranks, and each cell
becomes one exact ``Decimal``, so grouped reports are exact and byte-stable.
Rank bins are 500 sites wide, partner-popularity bins group 10 partners at a
time.
"""

from __future__ import annotations

import csv
import json
from array import array
from collections import Counter, defaultdict
from decimal import Decimal
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .domain import (CHANNEL_CLIENT, CPM_QUANTUM, HB_FACETS, MS_QUANTUM, ConfigurationError, Facet, compact_json,
                     read_json_lines, rounded_str)

RANK_BIN_WIDTH = 500
POPULARITY_BIN_WIDTH = 10

CSV_COLUMNS = ("group", "count", "p5", "p25", "p50", "p75", "p95", "mean")

MS_SCALE = -MS_QUANTUM.as_tuple().exponent  # a time is kept as whole µs
CPM_SCALE = -CPM_QUANTUM.as_tuple().exponent  # a price is kept as whole micro-CPM
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
        # count, rank bin or None, site, drew bids).
        self.total_latency = _Columns(MS_SCALE)
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


_TIMES_KEPT = 1 << 14  # about 2 MiB; market_mix's 5,000 auctions hold 7,184 distinct bid times


class _Times(dict):
    """``times[value]`` is ``_scaled(value, MS_SCALE)``, converted once per
    distinct string while at most ``_TIMES_KEPT`` are kept; past that, the
    cache starts over.  Only strings are kept: as a key, ``True`` would find ``1``."""

    def __missing__(self, value):
        units = _scaled(value, MS_SCALE)
        if type(value) is str:
            if len(self) >= _TIMES_KEPT:
                self.clear()
            self[value] = units
        return units



class _Loader:
    """Files one row at a time into ``Records``.  ``one(value)`` is the
    first equal value seen, so each partner, size, facet, key and partner
    set of a file is stored once, and ``ms`` converts each bid time once."""

    def __init__(self, records: Records):
        self.records = records
        self.one = _Shared().__getitem__
        self.ms = _Times()

    def auction(self, site_id, facet, is_hb, partners, total, slot_count, rank, slots, timed: bool) -> None:
        """``slots`` holds a (size, bid dicts) pair per slot.  A bid without a
        channel is a client bid.  Its latency is its ``latency_ms``, or when
        ``timed``, its ``arrived_at_ms`` less its ``requested_at_ms`` if its
        channel says client."""
        rec, one, ms = self.records, self.one, self.ms
        if type(partners) is not list:
            raise TypeError(f"the partner list {partners!r} is not a list")
        if type(is_hb) is not bool:
            raise TypeError(f"is_hb {is_hb!r} is not true or false")
        cpm, bid_latency, client_bids = rec.cpm, rec.bid_latency, rec.client_bids
        n_bids = n_client = n_late = 0
        for size, bids in slots:
            for bid in bids:
                partner, late, channel = bid["partner"], bid.get("late", False), bid.get("channel", CHANNEL_CLIENT)
                if partner is None:
                    raise TypeError("a bid's partner is null")
                if late is not True and late is not False:
                    raise TypeError(f"a bid's late {late!r} is not true or false")
                partner = one(partner)
                n_bids += 1
                cpm.add((partner, size, facet), _scaled(bid["cpm"], CPM_SCALE))
                if not timed:
                    latency = bid.get("latency_ms")
                    if latency is not None:
                        latency = ms[latency]
                elif bid.get("channel") == CHANNEL_CLIENT and (arrived := bid.get("arrived_at_ms")) is not None \
                        and (requested := bid.get("requested_at_ms")) is not None:
                    latency = _difference(ms[arrived], ms[requested])
                else:
                    latency = None
                if latency is not None:
                    bid_latency.add(partner, latency)
                if channel == CHANNEL_CLIENT:
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
            # A site's key is kept as long as the table, so its parts are shared, not held per site.
            key = (one(str(len(partners))), one(str(slot_count)), one(rank_bin), site_id, n_bids > 0)
            rec.total_latency.add(one(key), total)
        if is_hb:
            last_facet, seen = rec.hb_sites.get(site_id, (None, frozenset()))
            rec.hb_sites[site_id] = one((facet or last_facet, one(seen.union(map(one, partners)))))

    def outcome_row(self, row: dict) -> None:
        facet = self.one(row.get("facet"))
        if facet == Facet.WATERFALL_ONLY:  # each tier that bid is a client bid, never late
            slots = [(None, [{"partner": tier["partner"], "cpm": tier["bid"], "latency_ms": tier["latency_ms"]}
                             for tier in row.get("tiers_tried", ()) if tier.get("bid") is not None])]
        else:
            slots = [(self.one(slot.get("size")), slot.get("bids", ())) for slot in row.get("slots", ())]
        for key in ("slot_count", "rank"):
            if isinstance(row.get(key), (bool, float)):  # int() would file 2.5 as 2 and true as 1
                raise TypeError(f"{key} {row[key]!r} is not an integer")
        rank = row.get("rank")
        self.auction(row["site_id"], facet, facet in HB_FACETS, row.get("partner_ids", []),
                     row.get("total_latency_ms"), int(row.get("slot_count", 0)),
                     None if rank is None else int(rank), slots, facet != Facet.WATERFALL_ONLY)

    def result_row(self, row: dict, rank_by_site: dict[str, int] | None) -> None:
        site_id = row["site_id"]
        slots = [(self.one(auction.get("size")), auction.get("bids", ())) for auction in row.get("auctions", ())]
        self.auction(site_id, self.one(row.get("facet")), row["is_hb"], row.get("partners", []),
                     row.get("hb_latency_ms"), len(slots),
                     rank_by_site.get(site_id) if rank_by_site else None, slots, False)


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
    for columns in (records.total_latency, records.bid_latency, records.cpm):
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


class StatsSummary(NamedTuple):
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
# ((group, its sorted columns) pairs, the scale of their whole units).

def _grouped(columns: _Columns, group_of):
    """The columns of each ``group_of(key)``, then its odd values as one-value
    columns in file order; a None group leaves the key out.  Returned with
    the scale of the columns' units."""
    groups = defaultdict(list)
    for key, column in chain(columns.items(), ((key, (value,)) for key, value in columns.odd)):
        group = group_of(key)
        if group is not None:
            groups[group].append(column)
    return groups.items(), columns.scale


# Auctions that drew no bids can be left out of latency groupings, since a
# wrapper waiting on silence measures only its timeout.

def _total_latency_by(part: int):
    """Each auction's total latency under one part of its key."""
    def grouping(records, include_zero_bid_auctions):
        return _grouped(records.total_latency, lambda key: key[part] if include_zero_bid_auctions or key[-1] else None)
    return grouping


def _bid_latency_by_partner(records, _):
    return _grouped(records.bid_latency, lambda partner: partner)


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
    return lambda records, _: _grouped(records.cpm, lambda key: key[part])


def _price_by_popularity_bin(records, _):
    """Partners ranked by HB-site presence, 10 to a bin."""
    presence = _partner_shares(records)[0]
    order = sorted(presence, key=lambda pid: (-presence[pid], pid))
    bin_of = {pid: _bin_label(i, POPULARITY_BIN_WIDTH) for i, pid in enumerate(order)}
    return _grouped(records.cpm, lambda key: bin_of.get(key[0]))


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


def _flat_row(group: str, count: int, value: Decimal) -> dict:
    return {"group": group, "count": count, **dict.fromkeys(CSV_COLUMNS[2:], rounded_str(value))}


def _decimals(columns: list, scale: int | None) -> list[Decimal]:
    """A group's exact values in ascending order.  ``_grouped`` puts odd values
    last, in file order, and the sort is stable, so of equal values that
    print differently (0 and -0, always odd) the earlier in the file comes first."""
    return sorted([_exact(value, scale) for column in columns for value in column])


def _stats_row(group: str, columns: list, scale: int | None) -> dict:
    if not all(type(column) is array for column in columns):
        s = StatsSummary.of(_decimals(columns, scale))
    else:
        data = sorted(chain.from_iterable(columns)) if len(columns) > 1 else columns[0]
        if len(data) == 1:
            return _flat_row(group, 1, Decimal(data[0]).scaleb(-scale))
        s = StatsSummary.of_units(data, scale)
    return {"group": group, "count": s.count, **dict(zip(CSV_COLUMNS[2:], map(rounded_str, s[1:])))}


def _by_group(row: dict):
    return row["group"]


def _by_number(row: dict):
    return (0, int(row["group"])) if row["group"].isdigit() else (1, row["group"])


def _by_bin_start(row: dict):
    return int(row["group"].split("-")[0])


def _most_first(row: dict):
    return (-row["count"], row["group"])


_DISTRIBUTIONS = {
    "latency_by_site": (_total_latency_by(3), _by_group),
    "latency_by_partner": (_bid_latency_by_partner, _by_group),
    "latency_by_partner_count": (_total_latency_by(0), _by_number),
    "latency_by_slot_count": (_total_latency_by(1), _by_number),
    "latency_by_rank_bin": (_total_latency_by(2), _by_bin_start),
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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(itemgetter(*CSV_COLUMNS), rows))


# The items of a flat row, each on a line of its own at the indent of report.json's row items.  The
# C encoder writes them; indent= would take the pure-Python one.
_row_items = json.JSONEncoder(separators=(",\n        ", ": "), sort_keys=True, check_circular=False).encode


def write_report_json(fh, name: str, rows: list[dict], first: bool, last: bool) -> None:
    """Writes report ``name`` to the text file ``fh`` as its entry in the text
    of ``json.dump({"reports": reports}, indent=2, sort_keys=True)`` and a
    newline, one flat row at a time.  Each report takes one call, in name
    order: ``first`` opens the text, ``last`` closes it."""
    fh.write(('{\n  "reports": {\n    ' if first else ",\n    ") + compact_json(name) + ": [")
    separator = "\n      "
    for row in rows:
        fh.write(separator + ("{\n        " + _row_items(row)[1:-1] + "\n      }" if row else "{}"))
        separator = ",\n      "
    fh.write("\n    ]" if rows else "]")
    if last:
        fh.write("\n  }\n}\n")
