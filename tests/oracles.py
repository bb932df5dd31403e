"""Independent straight-line oracles used to pin expected values in tests.

Everything here is deliberately naive (explicit loops, brute-force scans) and
written against the protocol rules directly, not against the library code, so
the tests compare two unrelated derivations of the same quantity.
"""

import json
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from urllib.parse import urlsplit


def brute_force_winner(bids, floor):
    """Scan of (partner_id, cpm, arrived_at_ms, late) tuples for one slot.

    Highest on-time cpm meeting the floor; ties broken by earliest arrival,
    then lexicographically smallest partner id.
    """
    best = None
    for partner_id, cpm, arrived, late in bids:
        if late or cpm < floor:
            continue
        if best is None:
            best = (partner_id, cpm, arrived)
            continue
        b_pid, b_cpm, b_arr = best
        if cpm > b_cpm:
            best = (partner_id, cpm, arrived)
        elif cpm == b_cpm:
            if arrived < b_arr or (arrived == b_arr and partner_id < b_pid):
                best = (partner_id, cpm, arrived)
    if best is None:
        return None
    return best[0], best[1]


def send_time(policy, timeout_ms, arrivals):
    """Wrapper handoff time, recomputed without the engine."""
    timeout = Decimal(timeout_ms)
    if policy == "immediate":
        return Decimal(0)
    if not arrivals:
        return Decimal(0)
    latest = max(arrivals)
    return latest if latest < timeout else timeout


def client_side_totals(partner_latencies, ad_server_latency, policy, timeout_ms):
    """Hand trace of one client-side round with every partner responding.

    Returns (send_time, ad_server_response_time, total_latency, late_flags)
    where late_flags[i] corresponds to partner_latencies[i].
    """
    send = send_time(policy, timeout_ms, list(partner_latencies))
    response = send + ad_server_latency
    late = [arr > send for arr in partner_latencies]
    return send, response, response, late


def waterfall_totals(tiers, floor):
    """tiers: list of (partner_id, bid_or_None, latency).  Sequential trial."""
    tried = []
    winner = None
    total = Decimal(0)
    for partner_id, bid, latency in tiers:
        tried.append((partner_id, bid, latency))
        total += latency
        if bid is not None and bid >= floor:
            winner = (partner_id, bid)
            break
    return tried, winner, total


def serialize_event_json(event):
    """One trace line the plain way: a dict in schema key order, then
    ``json.dumps`` (ASCII-only, compact).  Absent fields and empty params are
    left out; the timestamp is quantized to 3 places, half-even."""
    ts = event.ts_ms.quantize(Decimal("0.001"), rounding="ROUND_HALF_EVEN")
    obj = {"ts_ms": format(ts, "f"), "kind": event.kind}
    for key in ("event_name", "url", "direction", "params", "auction_id", "slot_id"):
        value = getattr(event, key)
        if value is not None and (key != "params" or value):
            obj[key] = value
    return json.dumps(obj, separators=(",", ":"))


def count_client_trace_events(n_partners, n_arrived_bids, n_slots, n_filled_slots,
                              client_winner_slots):
    """Enumerate the records a client-side or hybrid trace must contain.

    n_arrived_bids counts (partner, slot) responses that reached the browser,
    late or not; client_winner_slots counts filled slots won by a client bid
    (only those get a bidWon record).
    """
    total = 0
    total += 1          # auctionInit
    total += 1          # requestBids
    total += n_partners  # bidRequested dom events
    total += n_partners  # outbound bid web_requests
    total += n_arrived_bids  # inbound bid web_responses
    total += n_arrived_bids  # bidResponse dom events
    total += 1          # auctionEnd
    total += 1          # ad-server web_request
    total += n_slots    # ad-server web_responses, one per slot
    total += client_winner_slots  # bidWon
    total += n_filled_slots       # slotRenderEnded (or adRenderFailed)
    return total


def percentile_linear(values, q_pct):
    """Linear interpolation between closest ranks over Decimal data."""
    data = sorted(values)
    n = len(data)
    if n == 1:
        return data[0]
    pos = q_pct * (n - 1)
    i, rem = divmod(pos, 100)
    i = int(i)
    if rem == 0:
        return data[i]
    return data[i] + (data[i + 1] - data[i]) * Decimal(rem) / Decimal(100)


# --------------------------------------------------------------------------
# Reports: one straight loop per report family, over AuctionRecord-shaped
# objects, giving the rows build_report must give.

REPORT_CPM_QUANTUM = Decimal("0.000001")


class Rec:
    """One auction read from a row: attributes only."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _number(value):
    if value is None:
        return None
    return Decimal(value if isinstance(value, str) else str(value))


def read_records(rows, rank_by_site=None):
    """Auction records from outcome or result rows, each value a Decimal as
    the row gives it.  A row with "is_hb" is a result row; error rows are
    skipped."""
    records = []
    for row in rows:
        if "error" in row:
            continue
        bids = []
        if "is_hb" in row:
            for auction in row.get("auctions", []):
                for b in auction.get("bids", []):
                    bids.append(Rec(partner=b["partner"], size=auction.get("size"), cpm=_number(b["cpm"]),
                                    latency_ms=_number(b.get("latency_ms")), late=bool(b.get("late")),
                                    channel=b.get("channel", "client")))
            rank = rank_by_site.get(row["site_id"]) if rank_by_site else None
            records.append(Rec(site_id=row["site_id"], facet=row.get("facet"), is_hb=bool(row["is_hb"]), rank=rank,
                               partner_ids=list(row.get("partners", [])), bids=bids,
                               total_latency_ms=_number(row.get("hb_latency_ms")),
                               slot_count=len(row.get("auctions", []))))
            continue
        slots = []
        if row.get("facet") == "waterfall_only":
            for tier in row.get("tiers_tried", []):
                if tier.get("bid") is not None:
                    bids.append(Rec(partner=tier["partner"], size=None, cpm=_number(tier["bid"]),
                                    latency_ms=_number(tier["latency_ms"]), late=False, channel="client"))
        else:
            slots = row.get("slots", [])
        for slot in slots:
            for b in slot.get("bids", []):
                latency = None
                if b.get("channel") == "client" and b.get("arrived_at_ms") is not None \
                        and b.get("requested_at_ms") is not None:
                    latency = _number(b["arrived_at_ms"]) - _number(b["requested_at_ms"])
                bids.append(Rec(partner=b["partner"], size=slot.get("size"), cpm=_number(b["cpm"]),
                                latency_ms=latency, late=bool(b.get("late")), channel=b.get("channel", "client")))
        records.append(Rec(site_id=row["site_id"], facet=row.get("facet"),
                           is_hb=row.get("facet") in ("client_side", "server_side", "hybrid"),
                           rank=None if row.get("rank") is None else int(row["rank"]),
                           partner_ids=list(row.get("partner_ids", [])), bids=bids,
                           total_latency_ms=_number(row.get("total_latency_ms")),
                           slot_count=int(row.get("slot_count", 0))))
    return records


def read_records_file(path, rank_by_site=None):
    with open(path, "r", encoding="utf-8") as fh:
        return read_records([json.loads(line) for line in fh if line.strip()], rank_by_site)


def report_text(value):
    """A report cell: 6 fraction digits half-even, trailing zeros dropped."""
    text = format(value.quantize(REPORT_CPM_QUANTUM, rounding="ROUND_HALF_EVEN"), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def stats_row(group, values):
    data = sorted(values)
    cells = {f"p{q}": report_text(percentile_linear(data, q)) for q in (5, 25, 50, 75, 95)}
    mean = sum(data, Decimal(0)) / Decimal(len(data))
    return {"group": group, "count": len(data), **cells, "mean": report_text(mean)}


def flat_row(group, count, value):
    text = report_text(value)
    return {"group": group, "count": count, "p5": text, "p25": text, "p50": text,
            "p75": text, "p95": text, "mean": text}


def _latency_groups(records, group_by, include_zero_bid_auctions):
    groups = {}
    for rec in records:
        if group_by == "partner":
            for bid in rec.bids:
                if bid.latency_ms is not None:
                    groups.setdefault(bid.partner, []).append(bid.latency_ms)
            continue
        if rec.total_latency_ms is None:
            continue
        if not include_zero_bid_auctions and not rec.bids:
            continue
        if group_by == "site":
            key = rec.site_id
        elif group_by == "partner_count":
            key = str(len(rec.partner_ids))
        elif group_by == "slot_count":
            key = str(rec.slot_count)
        else:
            if rec.rank is None:
                continue
            lo = ((rec.rank - 1) // 500) * 500 + 1
            key = f"{lo}-{lo + 499}"
        groups.setdefault(key, []).append(rec.total_latency_ms)
    return groups


def _hb_partner_sets(records):
    partners_by_site = {}
    for rec in records:
        if rec.is_hb:
            partners_by_site.setdefault(rec.site_id, set()).update(rec.partner_ids)
    return partners_by_site


def _price_groups(records, group_by):
    bin_of = {}
    if group_by == "partner_popularity_bin":
        presence = {}
        for pids in _hb_partner_sets(records).values():
            for pid in pids:
                presence[pid] = presence.get(pid, 0) + 1
        order = sorted(presence, key=lambda pid: (-presence[pid], pid))
        for i, pid in enumerate(order):
            lo = (i // 10) * 10 + 1
            bin_of[pid] = f"{lo}-{lo + 9}"
    groups = {}
    for rec in records:
        for bid in rec.bids:
            if group_by == "slot_size":
                key = bid.size
            elif group_by == "facet":
                key = rec.facet
            else:
                key = bin_of.get(bid.partner)
            if key is not None:
                groups.setdefault(key, []).append(bid.cpm)
    return groups


def _numeric(key):
    return (0, int(key)) if key.isdigit() else (1, key)


def _bin_start(key):
    return int(key.split("-")[0])


def report_rows(name, records, include_zero_bid_auctions=True):
    """Rows of one named report, derived without the library's helpers."""
    records = list(records)
    latency = {
        "latency_by_site": ("site", None),
        "latency_by_partner": ("partner", None),
        "latency_by_partner_count": ("partner_count", _numeric),
        "latency_by_slot_count": ("slot_count", _numeric),
        "latency_by_rank_bin": ("rank_bin", _bin_start),
    }
    prices = {
        "prices_by_slot_size": ("slot_size", None),
        "prices_by_facet": ("facet", None),
        "prices_by_popularity_bin": ("partner_popularity_bin", _bin_start),
    }
    if name in latency or name in prices:
        if name in latency:
            group_by, order = latency[name]
            groups = _latency_groups(records, group_by, include_zero_bid_auctions)
        else:
            group_by, order = prices[name]
            groups = _price_groups(records, group_by)
        return [stats_row(k, groups[k]) for k in sorted(groups, key=order)]
    if name in ("late_bid_fractions", "late_by_partner"):
        fractions, with_late, tallies = [], [], {}
        for rec in records:
            client = [b for b in rec.bids if b.channel == "client"]
            late = sum(1 for b in client if b.late)
            if client:
                fractions.append(Decimal(late) / Decimal(len(client)))
                if late:
                    with_late.append(fractions[-1])
            for b in client:
                tally = tallies.setdefault(b.partner, [])
                tally.append(Decimal(1) if b.late else Decimal(0))
        if name == "late_by_partner":
            return [stats_row(pid, tallies[pid]) for pid in sorted(tallies)]
        rows = []
        if fractions:
            rows.append(stats_row("all_auctions", fractions))
        if with_late:
            rows.append(stats_row("auctions_with_late_bids", with_late))
        return rows
    if name == "facet_breakdown":
        last_facet = {}
        for rec in records:
            if rec.is_hb and rec.facet:
                last_facet[rec.site_id] = rec.facet
        counts = {}
        for facet in last_facet.values():
            counts[facet] = counts.get(facet, 0) + 1
        total = len(last_facet)
        return [flat_row(f, n, Decimal(n) / Decimal(total)) for f, n in sorted(counts.items())]
    if name not in ("partner_popularity", "partner_combinations"):
        raise ValueError(name)
    partners_by_site = _hb_partner_sets(records)
    total = len(partners_by_site)
    counts = {}
    for pids in partners_by_site.values():
        keys = pids if name == "partner_popularity" else ["+".join(sorted(pids))]
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [flat_row(key, n, Decimal(n) / Decimal(total)) for key, n in ranked]


def url_host(url):
    """Host of an http(s) URL from urlsplit's own body, past its cache: lower
    case, no userinfo or port; None for other schemes, URLs without a host
    and URLs urlsplit rejects."""
    if not url:
        return None
    try:
        parts = urlsplit.__wrapped__(url)
    except ValueError:
        return None
    return parts.hostname if parts.scheme in ("http", "https") else None


def json_outcome(decode, line):
    """decode(line) as ("value", repr of the value) or ("error", exception
    type, message); repr tells 1 from 1.0 and True, and NaN equals NaN."""
    try:
        return ("value", repr(decode(line)))
    except (ValueError, RecursionError) as exc:
        return ("error", type(exc), str(exc))


def string_timestamp(text, line_no):
    """A string ts_ms checked the plain way: ("ok", canonical text) or
    ("error", the parse error's message)."""
    try:
        ts = Decimal(text)
    except (ValueError, InvalidOperation) as exc:
        return ("error", f"line {line_no}: bad ts_ms: {exc}")
    if not ts.is_finite() or abs(ts) >= Decimal("1e15"):
        return ("error", f"line {line_no}: bad ts_ms: out of range: {text!r}")
    return ("ok", str(ts.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN)))


# Reference corpus generator, written out the plain way: each weighted draw
# re-sums the Decimal weights and walks them as floats, and every slot, facet
# and policy is built per site.  scenario.expand_sites must give the same sites.

def _generator_weights(obj, where):
    from hbarena.domain import ConfigurationError

    if not isinstance(obj, dict) or not obj:
        raise ConfigurationError(f"{where}: expected a non-empty weight map")
    out = []
    for key in sorted(obj):
        weight = Decimal(str(obj[key]))
        if weight < 0:
            raise ConfigurationError(f"{where}: negative weight for {key!r}")
        if weight > 0:
            out.append((key, weight))
    if not out:
        raise ConfigurationError(f"{where}: all weights are zero")
    return out


def _quota_counts(weights, n):
    total = sum(w for _, w in weights)
    shares = [(key, Decimal(n) * w / total) for key, w in weights]
    counts = {key: int(share) for key, share in shares}
    remainder = n - sum(counts.values())
    by_fraction = sorted(shares, key=lambda kv: (kv[1] - int(kv[1]), kv[0]), reverse=True)
    for key, _ in by_fraction[:remainder]:
        counts[key] += 1
    return counts


def weighted_choice(stream, weights):
    total = float(sum(w for _, w in weights))
    threshold = stream.uniform() * total
    acc = 0.0
    for key, weight in weights:
        acc += float(weight)
        if threshold < acc:
            return key
    return weights[-1][0]


def shuffle(stream, items):
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = stream.choice_index(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


_GENERATOR_DEFAULTS = {
    "site_prefix": "site",
    "rank_start": 1,
    "facet_weights": {"server_side": Decimal(48), "hybrid": Decimal("34.7"), "client_side": Decimal("17.3")},
    "roster_order": "shuffle",
    "partner_count_weights": {"1": Decimal(52), "2": Decimal(18), "3": Decimal(12), "5": Decimal(10), "10": Decimal(8)},
    "slot_count_weights": {"1": Decimal(25), "2": Decimal(25), "3": Decimal(20), "4": Decimal(15), "5": Decimal(10), "6": Decimal(5)},
    "slot_sizes": {"300x250": Decimal(45), "728x90": Decimal(25), "300x600": Decimal(15), "160x600": Decimal(10), "320x50": Decimal(5)},
    "floor_price": Decimal("0.01"),
    "wrapper_policy_weights": {"wait_timeout": Decimal(1)},
    "timeout_ms": 3000,
    "waterfall_tiers": 2,
    "server_backend_count": 3,
    "render_fail_probability": Decimal(0),
}


def generate_sites(partners, gen, master_seed):
    """The generated sites of a generator block over a partner_id -> spec map;
    well-formed blocks only (the library's checks are not repeated)."""
    from hbarena.domain import AdSlotSpec, Facet, LatencyModel, WebsiteScenario, WrapperPolicy
    from hbarena.netsim import RngStream

    cfg = dict(_GENERATOR_DEFAULTS)
    cfg.update(gen)
    num_sites = int(cfg["num_sites"])
    facet_weights = _generator_weights(cfg["facet_weights"], "facet_weights")
    policy_weights = _generator_weights(cfg["wrapper_policy_weights"], "wrapper_policy_weights")
    slot_count_weights = _generator_weights(cfg["slot_count_weights"], "slot_count_weights")
    size_weights = _generator_weights(cfg["slot_sizes"], "slot_sizes")
    partner_count_weights = _generator_weights(cfg["partner_count_weights"], "partner_count_weights")
    ad_server = cfg.get("ad_server_partner")
    pool = list(cfg.get("partner_pool") or [pid for pid in partners if pid != ad_server])
    ad_server_latency = cfg.get("ad_server_latency")
    if isinstance(ad_server_latency, dict):
        ad_server_latency = LatencyModel.from_json(ad_server_latency)
    elif ad_server_latency is None:
        ad_server_latency = LatencyModel.fixed(Decimal(50))
    floor = Decimal(str(cfg["floor_price"]))
    timeout_ms = int(cfg["timeout_ms"])
    waterfall_tiers = int(cfg["waterfall_tiers"])
    backend_count = int(cfg["server_backend_count"])
    roster_order = cfg["roster_order"]
    render_fail = Decimal(str(cfg["render_fail_probability"]))
    prefix = cfg["site_prefix"]
    rank_start = int(cfg["rank_start"])

    counts = _quota_counts(facet_weights, num_sites)
    facet_list = []
    for facet, _ in facet_weights:
        facet_list.extend([facet] * counts[facet])
    facet_list = shuffle(RngStream(master_seed, "__generator__", 0, "facet_shuffle"), facet_list)

    sites = []
    for idx, facet_name in enumerate(facet_list):
        facet = Facet(facet_name)
        site_id = f"{prefix}{idx:05d}"
        rank = rank_start + idx

        def stream(purpose):
            return RngStream(master_seed, site_id, 0, f"gen:{purpose}")

        if facet is Facet.NO_ADS:
            sites.append(WebsiteScenario(
                site_id=site_id, rank=rank, facet=facet, slots=(), partners=(),
                wrapper_policy=WrapperPolicy.WAIT_TIMEOUT,
                ad_server_latency=ad_server_latency, timeout_ms=timeout_ms,
            ))
            continue

        n_slots = int(weighted_choice(stream("slot_count"), slot_count_weights))
        slots = []
        size_stream = stream("slot_sizes")
        for s in range(n_slots):
            width, height = weighted_choice(size_stream, size_weights).split("x")
            slots.append(AdSlotSpec(slot_id=f"slot{s}", width=int(width), height=int(height), floor_price=floor))

        ordered_pool = shuffle(stream("roster"), pool) if roster_order == "shuffle" else list(pool)
        if facet is Facet.WATERFALL_ONLY:
            roster = tuple(ordered_pool[: max(1, min(waterfall_tiers, len(ordered_pool)))])
            entity = None
            policy = WrapperPolicy.WAIT_TIMEOUT
        elif facet is Facet.SERVER_SIDE:
            roster = tuple(ordered_pool[: max(1, min(backend_count, len(ordered_pool)))])
            entity = ad_server
            policy = WrapperPolicy.WAIT_TIMEOUT
        else:
            k = int(weighted_choice(stream("partner_count"), partner_count_weights))
            roster = tuple(ordered_pool[: max(1, min(k, len(ordered_pool)))])
            entity = ad_server if facet is Facet.HYBRID else None
            policy = WrapperPolicy(weighted_choice(stream("wrapper_policy"), policy_weights))

        sites.append(WebsiteScenario(
            site_id=site_id, rank=rank, facet=facet, slots=tuple(slots), partners=roster,
            wrapper_policy=policy, ad_server_latency=ad_server_latency, timeout_ms=timeout_ms,
            ad_server_partner_id=entity, render_fail_probability=render_fail,
        ))
    return sites
