"""Header-bidding detection over browser traces.

Two complementary signals decide HB presence: wrapper DOM events (which only
HB libraries fire) and web records that both match a known demand partner
and carry HB parameters (bidder, or any hb_* key).  Records with
HB parameters on unknown hosts still count, attributed to
"unknown:<host>", so unlisted partners are not missed.  Plain waterfall
traffic (no DOM events, no HB parameters) never triggers.

Facet classification:
  server_side   no wrapper DOM events, but responses carry hb_* parameters
  hybrid        wrapper DOM events present, and the ad-server response either
                names a bidder never seen client-side or comes from a known
                demand-partner host (an entity running its own auction)
  client_side   wrapper DOM events present, ad server is first-party and
                names no new bidders

extract_auction_metadata reads a trace in one pass, in file order.  It notes
whether the trace shows HB at all, whether a wrapper DOM event fired, the
first auctionEnd, the earliest outbound request, each bidder's first request,
the first request without a bidder (the ad request), the partners and client
bidders seen, and it keeps the bidResponse, bidWon and render events and the
responses without a bidder.  After the pass it picks the ad server's
responses (from the ad request's host, at or after it), decides the facet,
and builds the bids, winners and sizes of each slot.

Documented ambiguous corner: a client-side publisher that points its wrapper
at an ad server hosted on a known demand-partner domain is indistinguishable
from hybrid and will be classified as such.

The detector consumes only the trace itself, never the truth sidecar.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from typing import NamedTuple

from .domain import (CHANNEL_AD_SERVER, CHANNEL_CLIENT, Facet, PartnerDirectory, decimal_str, lookup_partner,
                     quantize_cpm, quantize_ms)
from .tracegen import KIND_DOM, KIND_REQUEST, KIND_RESPONSE, Trace, url_host

HB_PARAM_KEYWORD = "bidder"
HB_PARAM_PREFIX = "hb_"

# DOM events emitted by the wrapper's bid flow; render notifications alone
# also fire on server-side setups.
WRAPPER_DOM_EVENTS = frozenset(
    {"auctionInit", "requestBids", "bidRequested", "bidResponse", "auctionEnd", "bidWon"}
)


class DetectedBid(NamedTuple):
    partner: str
    cpm: Decimal
    latency_ms: Decimal | None
    late: bool
    channel: str


class SlotAuction(NamedTuple):
    slot_id: str
    size: str | None
    bids: tuple[DetectedBid, ...]
    winner_partner: str | None
    winner_cpm: Decimal | None


class DetectionResult(NamedTuple):
    """One trace's verdict; the defaults are those of a trace without HB."""

    site_id: str
    round_index: int
    is_hb: bool = False
    facet: Facet | None = None
    partners: tuple[str, ...] = ()
    auctions: tuple[SlotAuction, ...] = ()
    late_bid_count: int = 0
    hb_latency_ms: Decimal | None = None
    warnings: int = 0


def _price(params: dict[str, str]) -> Decimal | None:
    """The record's hb_price as a canonical CPM; None when it is absent, not
    a number, not finite or too large for CPM precision."""
    try:
        cpm = quantize_cpm(Decimal(params.get("hb_price")))
    except (InvalidOperation, TypeError):
        return None
    return cpm if cpm.is_finite() else None


def extract_auction_metadata(trace: Trace, directory: PartnerDirectory) -> DetectionResult:
    """Pull partners, per-slot bids, winners, late counts, and the HB latency
    (first outbound bid request to ad-server response) out of one trace."""
    resolved: dict[str, str | None] = {}  # host -> partner, looked up once per trace

    def lookup(host: str) -> str | None:
        if host not in resolved:
            resolved[host] = lookup_partner(host, directory)
        return resolved[host]

    is_hb = wrapper = False  # wrapper: any wrapper bid-flow DOM event
    auction_end = first_outbound = ad_request = None  # ad_request: (ts, url)
    request_ts: dict[str, Decimal] = {}  # bidder -> its first outbound request
    bid_responses, slot_events, unmatched = [], [], []  # unmatched: responses without a bidder
    client_bidders: set[str] = set()
    partners: set[str] = set()
    for ts, kind, name, url, direction, params, _, slot_id in trace.events:
        if kind == KIND_DOM:
            is_hb = True
            wrapper = wrapper or name in WRAPPER_DOM_EVENTS
            if name == "bidRequested" or name == "bidResponse":
                bidder = params.get("bidder")
                if bidder is not None:
                    client_bidders.add(bidder)
                    if bidder:
                        partners.add(bidder)
                if name == "bidResponse":
                    bid_responses.append((ts, params, slot_id))
            elif name == "auctionEnd":
                if auction_end is None:
                    auction_end = ts
            elif name in ("bidWon", "slotRenderEnded", "adRenderFailed"):
                slot_events.append((name, params, slot_id))
            continue
        bidder = params.get("bidder")
        if kind == KIND_REQUEST and direction == "outbound":
            if first_outbound is None or ts < first_outbound:
                first_outbound = ts
            if bidder is None:
                ad_request = ad_request or (ts, url)
            elif bidder not in request_ts:
                request_ts[bidder] = ts
        if bidder is not None:
            host = url_host(url)
            partner = lookup(host) if host else None
            client_bidders.add(partner or bidder)
            if host:
                partners.add(partner or f"unknown:{host}")
        elif kind == KIND_RESPONSE:
            unmatched.append((ts, url, params, slot_id))
        # Known partner or not, HB-parameter traffic is HB activity;
        # attribution differs, detection does not.
        if not is_hb and any(k == HB_PARAM_KEYWORD or k.startswith(HB_PARAM_PREFIX) for k in params):
            is_hb = url_host(url) is not None
    if not is_hb:
        return DetectionResult(trace.site_id, trace.round_index)

    # The ad server's responses: from the request's host, at or after it.
    ad_host, ad_responses = None, []
    if ad_request is not None:
        ad_host = url_host(ad_request[1])
        ad_responses = [(ts, params, slot_id) for ts, url, params, slot_id in unmatched
                        if ts >= ad_request[0] and url_host(url) == ad_host]
    if not wrapper:
        facet = Facet.SERVER_SIDE
    elif (ad_host and lookup(ad_host)) or any(
        p.get("hb_partner") and p["hb_partner"] not in client_bidders for _, p, _ in ad_responses
    ):
        facet = Facet.HYBRID
    else:
        facet = Facet.CLIENT_SIDE

    warnings = 0
    late_count = 0
    slot_bids: dict[str, list[DetectedBid]] = {}
    slot_sizes: dict[str, str] = {}
    slot_winner: dict[str, tuple[str, Decimal]] = {}

    # A slot's size is the first one noted: bidResponses, then bidWon and
    # render events, then ad-server responses.
    def note_slot(slot_id, size):
        if slot_id is not None:
            slot_bids.setdefault(slot_id, [])
            if size and slot_id not in slot_sizes:
                slot_sizes[slot_id] = size

    for ts, params, slot_id in bid_responses:
        cpm = _price(params)
        if cpm is None:
            warnings += 1
            continue
        bidder = params.get("bidder", "")
        note_slot(slot_id, params.get("hb_size"))
        late = auction_end is not None and ts > auction_end
        late_count += late
        latency = ts - request_ts.get(bidder, Decimal(0))
        bid = DetectedBid(bidder or "unknown:", cpm, quantize_ms(latency), late, CHANNEL_CLIENT)
        slot_bids.setdefault(slot_id or "", []).append(bid)

    for name, params, slot_id in slot_events:
        if name == "bidWon":
            cpm = _price(params)
            if cpm is None:
                warnings += 1
                continue
            note_slot(slot_id, params.get("hb_size"))
            slot_winner[slot_id or ""] = (params.get("bidder", ""), cpm)
        else:
            note_slot(slot_id, params.get("hb_size"))

    hb_latency = None
    if ad_responses:
        hb_latency = quantize_ms(ad_responses[0][0] - (first_outbound or Decimal(0)))
        if ad_host:
            partner = lookup(ad_host)
            if partner:
                partners.add(partner)
            elif facet is Facet.SERVER_SIDE:
                partners.add(f"unknown:{ad_host}")
        for _, params, slot_id in ad_responses:
            named = params.get("hb_partner")
            if not named:
                note_slot(slot_id, None)
                continue
            cpm = _price(params)
            if cpm is None:
                warnings += 1
                continue
            note_slot(slot_id, params.get("hb_size"))
            if slot_id not in slot_winner:
                slot_winner[slot_id or ""] = (named, cpm)
            if named not in client_bidders:
                # New information only: a server-side price the client flow
                # never showed.  Client winners echoed back are not re-added.
                slot_bids.setdefault(slot_id or "", []).append(DetectedBid(named, cpm, None, False, CHANNEL_AD_SERVER))

    auctions = []
    for slot_id in sorted(slot_bids):
        winner = slot_winner.get(slot_id)
        auctions.append(
            SlotAuction(
                slot_id=slot_id,
                size=slot_sizes.get(slot_id),
                bids=tuple(slot_bids[slot_id]),
                winner_partner=winner[0] if winner else None,
                winner_cpm=winner[1] if winner else None,
            )
        )
    return DetectionResult(
        site_id=trace.site_id,
        round_index=trace.round_index,
        is_hb=True,
        facet=facet,
        partners=tuple(sorted(partners)),
        auctions=tuple(auctions),
        late_bid_count=late_count,
        hb_latency_ms=hb_latency,
        warnings=warnings,
    )


def result_row(result: DetectionResult) -> dict:
    """JSON-ready row for the results file."""
    return {
        "site_id": result.site_id,
        "round_index": result.round_index,
        "is_hb": result.is_hb,
        "facet": result.facet.value if result.facet else None,
        "partners": list(result.partners),
        "auctions": [
            {
                "slot_id": a.slot_id,
                "size": a.size,
                "bids": [
                    {
                        "partner": b.partner,
                        "cpm": decimal_str(b.cpm),
                        "latency_ms": format(b.latency_ms, "f") if b.latency_ms is not None else None,
                        "late": b.late,
                        "channel": b.channel,
                    }
                    for b in a.bids
                ],
                "winner_partner": a.winner_partner,
                "winner_cpm": decimal_str(a.winner_cpm) if a.winner_cpm is not None else None,
            }
            for a in result.auctions
        ],
        "late_bid_count": result.late_bid_count,
        "hb_latency_ms": format(result.hb_latency_ms, "f") if result.hb_latency_ms is not None else None,
        "warnings": result.warnings,
    }
