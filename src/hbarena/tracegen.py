"""Renders ground-truth outcomes as the browser-observable record stream a
real in-page detector would see, and parses that stream back.

A trace is JSON Lines, one record per line, with a fixed key order
(ts_ms, kind, event_name, url, direction, params, auction_id, slot_id) and
timestamps as canonical 3-digit decimal strings, so serialization is
byte-stable and parse(serialize(trace)) is an identity.

Per-facet fingerprints:
  client/hybrid  wrapper DOM events plus per-bid request/response records
  server-side    no wrapper DOM events; one outbound request, per-slot
                 responses carrying hb_* parameters, render events only
  waterfall      sequential request/response pairs per tier, no DOM events
                 and no hb_* parameters (notification-URL style)

At equal timestamps the wrapper's auctionEnd is emitted before its ad-server
request.  Late responses keep their true arrival timestamps, after
auctionEnd; that is what makes late-bid analysis possible from traces alone.
Identifiers that would leak ground truth (facet labels, partner ids as
fields) are never serialized: partner identity is only recoverable from URLs
and parameters, as in a real capture.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii as _json_str
from typing import Mapping
from urllib.parse import urlsplit

from .auction import AuctionOutcome, CHANNEL_CLIENT, SlotOutcome, WaterfallOutcome
from .domain import (MS_QUANTUM, DemandPartnerSpec, Facet, TraceParseError, WebsiteScenario, decimal_str, json_lines,
                     quantize_ms)

DOM_EVENT_NAMES = (
    "auctionInit",
    "requestBids",
    "bidRequested",
    "bidResponse",
    "auctionEnd",
    "bidWon",
    "slotRenderEnded",
    "adRenderFailed",
)

KIND_DOM = "dom_event"
KIND_REQUEST = "web_request"
KIND_RESPONSE = "web_response"

_ALLOWED_KEYS = frozenset(
    ("ts_ms", "kind", "event_name", "url", "direction", "params", "auction_id", "slot_id")
)
_KINDS = frozenset((KIND_DOM, KIND_REQUEST, KIND_RESPONSE))
_DOM_NAMES = frozenset(DOM_EVENT_NAMES)
_DIRECTIONS = frozenset(("outbound", "inbound"))
_WEB_SCHEMES = frozenset(("http", "https"))
_STR_OR_NONE = (str, type(None))
_TS_LIMIT_MS = Decimal("1e15")
# Round start; every other time an emitter stamps was quantized when sampled.
_ROUND_START = Decimal("0.000")


def url_host(url: str | None) -> str | None:
    """Lower-case host of an http(s) URL, without userinfo or port.

    None for other schemes, URLs without a host and malformed URLs (such as
    an unbalanced IPv6 bracket).
    """
    if not url:
        return None
    # The scheme and host both end before the first "?" or "#", so the URL
    # cut there has the same host; bidder URLs differ only in their query.
    return _host_before_query(url.partition("?")[0].partition("#")[0])


# Partner hosts recur in every trace and stay cached; a first-party ad
# server's is seen in one trace only.  A larger cache gets no more hits.
@functools.lru_cache(maxsize=256)
def _host_before_query(url: str) -> str | None:
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    return parts.hostname if parts.scheme in _WEB_SCHEMES else None


# Not frozen: a trace holds one event per record, and a frozen dataclass's
# __init__ costs several times as much per event.  Treat events as immutable.
@dataclass(slots=True)
class TraceEvent:
    ts_ms: Decimal
    kind: str
    event_name: str | None = None
    url: str | None = None
    direction: str | None = None
    params: dict[str, str] = field(default_factory=dict)
    auction_id: str | None = None
    slot_id: str | None = None


@dataclass(frozen=True)
class Trace:
    site_id: str
    round_index: int
    events: tuple[TraceEvent, ...]


def trace_filename(site_id: str, round_index: int) -> str:
    return f"{site_id}__r{round_index}.trace.jsonl"


def truth_filename(site_id: str, round_index: int) -> str:
    return f"{site_id}__r{round_index}.truth.jsonl"


def _ts(value: Decimal) -> str:
    return format(quantize_ms(value), "f")


def _site_host(site_id: str) -> str:
    # Client-side publishers run their own ad server on a first-party host
    # that no partner directory will resolve.
    return "adserver." + re.sub(r"[^a-z0-9-]", "-", site_id.lower()) + ".example"


def _partner_host(spec: DemandPartnerSpec) -> str:
    return spec.domains[0]


def _dom(ts, name, params=None, auction_id=None, slot_id=None) -> TraceEvent:
    return TraceEvent(
        ts_ms=ts,
        kind=KIND_DOM,
        event_name=name,
        params=dict(params or {}),
        auction_id=auction_id,
        slot_id=slot_id,
    )


def _web(ts, kind, url, direction, params=None, auction_id=None, slot_id=None) -> TraceEvent:
    return TraceEvent(
        ts_ms=ts,
        kind=kind,
        url=url,
        direction=direction,
        params=dict(params or {}),
        auction_id=auction_id,
        slot_id=slot_id,
    )


def _winner_channel(slot: SlotOutcome) -> str | None:
    if slot.winner is None:
        return None
    pid, _ = slot.winner
    for bid in slot.bids:
        if bid.partner_id == pid and not bid.late:
            return bid.channel
    return None


def _render_events(slot: SlotOutcome, ts, aid) -> list[TraceEvent]:
    if not slot.filled:
        return []
    name = "adRenderFailed" if slot.render_failed else "slotRenderEnded"
    return [_dom(ts, name, {"hb_size": slot.size}, auction_id=aid, slot_id=slot.slot_id)]


def _emit_wrapper_round(
    outcome: AuctionOutcome,
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
) -> list[TraceEvent]:
    aid = f"{outcome.site_id}:r{outcome.round_index}"
    send = outcome.wrapper_send_time_ms

    events: list[TraceEvent] = []
    events.append(_dom(_ROUND_START, "auctionInit", auction_id=aid))
    events.append(_dom(_ROUND_START, "requestBids", auction_id=aid))
    for pid in scenario.partners:
        url = f"https://{_partner_host(partners[pid])}/hb/bid?auction={aid}&bidder={pid}"
        events.append(_dom(_ROUND_START, "bidRequested", {"bidder": pid}, auction_id=aid))
        events.append(_web(_ROUND_START, KIND_REQUEST, url, "outbound", {"bidder": pid}, auction_id=aid))

    # One response record per (partner, slot) bid keeps the flat parameter
    # map collision-free; all of one partner's bids share its arrival time.
    for slot in outcome.slots:
        for bid in slot.bids:
            if bid.channel != CHANNEL_CLIENT:
                continue
            url = f"https://{_partner_host(partners[bid.partner_id])}/hb/bid?auction={aid}&bidder={bid.partner_id}"
            params = {
                "bidder": bid.partner_id,
                "hb_price": decimal_str(bid.cpm),
                "hb_size": slot.size,
            }
            events.append(
                _web(bid.arrived_at_ms, KIND_RESPONSE, url, "inbound", params,
                     auction_id=aid, slot_id=slot.slot_id)
            )
            events.append(
                _dom(bid.arrived_at_ms, "bidResponse", params, auction_id=aid, slot_id=slot.slot_id)
            )

    events.append(_dom(send, "auctionEnd", auction_id=aid))
    events += _ad_server_exchange(outcome, scenario, partners, send)
    return events


def _ad_server_exchange(
    outcome: AuctionOutcome,
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
    sent_at: Decimal,
) -> list[TraceEvent]:
    """The request to the ad server, its per-slot responses and the renders.

    bidWon marks a winner that came from the browser, so a server-side
    round, whose bids all reach the ad server directly, emits none.
    """
    aid = f"{outcome.site_id}:r{outcome.round_index}"
    if scenario.ad_server_partner_id:
        ad_host = _partner_host(partners[scenario.ad_server_partner_id])
    else:
        ad_host = _site_host(outcome.site_id)
    ad_url = f"https://{ad_host}/hb/auction?auction={aid}"
    response_at = outcome.ad_server_response_time_ms

    events = [_web(sent_at, KIND_REQUEST, ad_url, "outbound", {"hb_auction": aid}, auction_id=aid)]
    for slot in outcome.slots:
        params = {"hb_auction": aid}
        if slot.winner is not None:
            pid, cpm = slot.winner
            params.update({"hb_partner": pid, "hb_price": decimal_str(cpm), "hb_size": slot.size})
        events.append(
            _web(response_at, KIND_RESPONSE, ad_url, "inbound", params,
                 auction_id=aid, slot_id=slot.slot_id)
        )
    for slot in outcome.slots:
        if slot.winner is not None and _winner_channel(slot) == CHANNEL_CLIENT:
            pid, cpm = slot.winner
            events.append(
                _dom(response_at, "bidWon",
                     {"bidder": pid, "hb_price": decimal_str(cpm), "hb_size": slot.size},
                     auction_id=aid, slot_id=slot.slot_id)
            )
        events.extend(_render_events(slot, response_at, aid))
    return events


def _emit_waterfall(
    outcome: WaterfallOutcome,
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    t = _ROUND_START
    for i, trial in enumerate(outcome.tiers_tried):
        host = _partner_host(partners[trial.partner_id])
        url = f"https://{host}/wf/ad?tier={i}"
        events.append(_web(t, KIND_REQUEST, url, "outbound"))
        t += trial.latency_ms
        won = outcome.winner is not None and i == len(outcome.tiers_tried) - 1
        if won:
            params = {"price": decimal_str(outcome.winner[1])}
        else:
            params = {"nobid": "1"}
        events.append(_web(t, KIND_RESPONSE, url, "inbound", params))
    return events


def emit_trace(
    outcome: AuctionOutcome | WaterfallOutcome | None,
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
    round_index: int = 0,
) -> Trace:
    """Render one round's outcome as an ordered trace.

    Sites without ads produce an empty trace (round_index is only needed
    then; otherwise the outcome carries it).  Ground truth (facet label,
    winners, late flags) lives in the sidecar, never in the trace itself.
    """
    if outcome is None:
        return Trace(scenario.site_id, round_index, ())
    if isinstance(outcome, WaterfallOutcome):
        events = _emit_waterfall(outcome, scenario, partners)
    elif outcome.facet is Facet.SERVER_SIDE:
        events = _ad_server_exchange(outcome, scenario, partners, _ROUND_START)
    else:
        events = _emit_wrapper_round(outcome, scenario, partners)
    ordered = tuple(sorted(events, key=lambda e: e.ts_ms))  # stable: ties keep emission order
    return Trace(outcome.site_id, outcome.round_index, ordered)


def serialize_event(event: TraceEvent) -> str:
    """One compact, ASCII-only JSON line (no newline), keys in schema order.

    The same text as ``json.dumps`` of the record with ``separators=(",",
    ":")``; it is written out directly because building a dict and a new
    encoder per event costs several times as much.
    """
    parts = ['{"ts_ms":"', _ts(event.ts_ms), '","kind":', _json_str(event.kind)]
    if event.event_name is not None:
        parts += (',"event_name":', _json_str(event.event_name))
    if event.url is not None:
        parts += (',"url":', _json_str(event.url))
    if event.direction is not None:
        parts += (',"direction":', _json_str(event.direction))
    if event.params:
        sep = ',"params":{'
        for key, value in event.params.items():
            parts += (sep, _json_str(key), ":", _json_str(value))
            sep = ","
        parts.append("}")
    if event.auction_id is not None:
        parts += (',"auction_id":', _json_str(event.auction_id))
    if event.slot_id is not None:
        parts += (',"slot_id":', _json_str(event.slot_id))
    parts.append("}")
    return "".join(parts)


def serialize_trace(trace: Trace) -> str:
    return "".join([serialize_event(e) + "\n" for e in trace.events])


def _checked_ts(obj: dict, line_no: int) -> Decimal:
    try:
        raw = obj["ts_ms"]
        if isinstance(raw, bool):  # Decimal(True) would be 1
            raise TypeError("conversion from bool to Decimal is not supported")
        ts = Decimal(raw)
    except (KeyError, TypeError, ValueError, InvalidOperation) as exc:
        raise TraceParseError(line_no, f"bad ts_ms: {exc}") from exc
    # The bound keeps every difference of two timestamps exact at
    # millisecond precision in the default 28-digit context.
    if not ts.is_finite() or abs(ts) >= _TS_LIMIT_MS:
        raise TraceParseError(line_no, f"bad ts_ms: out of range: {obj['ts_ms']!r}")
    return ts.quantize(MS_QUANTUM, rounding=ROUND_HALF_EVEN)


# A trace repeats its own few timestamps within a few lines, so a small cache
# hits as often as a large one.
@functools.lru_cache(maxsize=64)
def _ts_of_text(text: str) -> Decimal | None:
    """The checked timestamp a string ts_ms stands for; None if it is unusable."""
    try:
        return _checked_ts({"ts_ms": text}, 0)
    except TraceParseError:
        return None


def parse_event(obj: dict, line_no: int) -> TraceEvent:
    if not obj.keys() <= _ALLOWED_KEYS:
        key = next(k for k in obj if k not in _ALLOWED_KEYS)
        raise TraceParseError(line_no, f"unknown key {key!r}")
    # A string timestamp is checked once per distinct text (round start,
    # arrivals and the ad server's response repeat).  Other types, and
    # unusable strings, take the checked path for its error message.
    ts = obj.get("ts_ms")
    ts = _ts_of_text(ts) if type(ts) is str else None
    if ts is None:
        ts = _checked_ts(obj, line_no)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise TraceParseError(line_no, f"bad kind {kind!r}")
    name = obj.get("event_name")
    if kind == KIND_DOM:
        if not isinstance(name, str) or name not in _DOM_NAMES:
            raise TraceParseError(line_no, f"unknown dom event {name!r}")
    elif name is not None:
        raise TraceParseError(line_no, "event_name only valid on dom_event records")
    direction = obj.get("direction")
    if kind == KIND_DOM:
        if not isinstance(direction, _STR_OR_NONE):
            raise TraceParseError(line_no, f"bad direction {direction!r}")
    elif not isinstance(direction, str) or direction not in _DIRECTIONS:
        raise TraceParseError(line_no, f"bad direction {direction!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise TraceParseError(line_no, "params must be a flat string map")
    for key, value in params.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise TraceParseError(line_no, "params must be a flat string map")
    url, auction_id, slot_id = obj.get("url"), obj.get("auction_id"), obj.get("slot_id")
    if not (
        isinstance(url, _STR_OR_NONE)
        and isinstance(auction_id, _STR_OR_NONE)
        and isinstance(slot_id, _STR_OR_NONE)
    ):
        raise TraceParseError(line_no, "url, auction_id and slot_id must be strings")
    return TraceEvent(ts, kind, name, url, direction, params, auction_id, slot_id)


def parse_trace_text(text: str, site_id: str, round_index: int) -> Trace:
    return Trace(site_id, round_index, tuple(parse_event(obj, n) for n, obj in json_lines(text.split("\n"))))


_TRACE_NAME_RE = re.compile(r"^(?P<site>.+)__r(?P<round>\d+)\.trace\.jsonl$")


def trace_key(name: str) -> tuple[str, int]:
    """(site id, round index) a trace file name stands for; a name that does
    not follow trace_filename stands for (name, 0)."""
    m = _TRACE_NAME_RE.match(name)
    return (m.group("site"), int(m.group("round"))) if m else (name, 0)


def file_label(name: str) -> str:
    """A file name as text, with bytes that are not UTF-8 shown as ``\\xNN``."""
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def parse_trace_file(path) -> Trace:
    """Load one trace; site and round are recovered from the file name."""
    site_id, round_index = trace_key(file_label(os.path.basename(str(path))))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace_text(fh.read(), site_id, round_index)


def _winner_json(winner: tuple[str, Decimal] | None) -> dict | None:
    return {"partner": winner[0], "cpm": decimal_str(winner[1])} if winner else None


def truth_record(
    outcome: AuctionOutcome | WaterfallOutcome | None, scenario: WebsiteScenario, round_index: int = 0
) -> dict:
    """Sidecar row used only for scoring; the detector never reads it."""
    if outcome is None:
        return {
            "site_id": scenario.site_id,
            "round_index": round_index,
            "facet": scenario.facet.value,
            "winner": {},
            "late_bid_count": 0,
            "total_latency_ms": "0.000",
        }
    if isinstance(outcome, WaterfallOutcome):
        winner, late = {outcome.slot_id: _winner_json(outcome.winner)}, 0
    else:
        winner = {slot.slot_id: _winner_json(slot.winner) for slot in outcome.slots}
        late = outcome.late_bid_count
    return {
        "site_id": outcome.site_id,
        "round_index": outcome.round_index,
        "facet": outcome.facet.value,
        "winner": winner,
        "late_bid_count": late,
        "total_latency_ms": _ts(outcome.total_latency_ms),
    }


def _participating_partners(scenario: WebsiteScenario) -> list[str]:
    if scenario.facet is Facet.SERVER_SIDE:
        return [scenario.ad_server_partner_id]
    if scenario.facet is Facet.HYBRID:
        return list(scenario.partners) + [scenario.ad_server_partner_id]
    return list(scenario.partners)


def outcome_row(
    outcome: AuctionOutcome | WaterfallOutcome | None, scenario: WebsiteScenario, round_index: int
) -> dict:
    """Ground-truth log row; carries the scenario context analytics needs.

    Times are printed with format(value, "f"), not _ts: an unquantized zero
    stays "0" here, as every outcomes.jsonl so far has it.
    """
    row = {
        "site_id": scenario.site_id,
        "rank": scenario.rank,
        "round_index": round_index,
        "facet": scenario.facet.value,
        "wrapper_policy": scenario.wrapper_policy.value,
        "timeout_ms": scenario.timeout_ms,
        "partner_ids": _participating_partners(scenario),
        "slot_count": len(scenario.slots),
    }
    if outcome is None:
        row.update({"partner_ids": [], "total_latency_ms": None})
    elif isinstance(outcome, WaterfallOutcome):
        row["tiers_tried"] = [
            {
                "partner": t.partner_id,
                "bid": decimal_str(t.bid) if t.bid is not None else None,
                "latency_ms": format(t.latency_ms, "f"),
            }
            for t in outcome.tiers_tried
        ]
        row["winner"] = _winner_json(outcome.winner)
        row["total_latency_ms"] = format(outcome.total_latency_ms, "f")
        row["fallback_used"] = outcome.fallback_used
    else:
        row["wrapper_send_time_ms"] = format(outcome.wrapper_send_time_ms, "f")
        row["ad_server_response_time_ms"] = format(outcome.ad_server_response_time_ms, "f")
        row["total_latency_ms"] = format(outcome.total_latency_ms, "f")
        row["winner_notified"] = outcome.winner_notified
        row["late_bid_count"] = outcome.late_bid_count
        row["slots"] = [
            {
                "slot_id": slot.slot_id,
                "size": slot.size,
                "floor_price": decimal_str(slot.floor_price),
                "filled": slot.filled,
                "fallback_used": slot.fallback_used,
                "render_failed": slot.render_failed,
                "winner": _winner_json(slot.winner),
                "bids": [
                    {
                        "partner": bid.partner_id,
                        "cpm": decimal_str(bid.cpm),
                        "requested_at_ms": format(bid.requested_at_ms, "f"),
                        "arrived_at_ms": format(bid.arrived_at_ms, "f"),
                        "late": bid.late,
                        "channel": bid.channel,
                    }
                    for bid in slot.bids
                ],
            }
            for slot in outcome.slots
        ]
    return row
