"""Header-bidding detection over browser traces.

Two complementary signals decide HB presence: wrapper DOM events (which only
HB libraries fire) and web records that both match a known demand partner
and carry HB parameters (bidder, hb_partner, hb_price, ...).  Records with
hb_* parameters on unknown hosts still count, attributed to
"unknown:<host>", so unlisted partners are not missed.  Plain waterfall
traffic (no DOM events, no HB parameters) never triggers.

Facet classification:
  server_side   no wrapper DOM events, but responses carry hb_* parameters
  hybrid        wrapper DOM events present, and the ad-server response either
                names a bidder never seen client-side or comes from a known
                demand-partner host (an entity running its own auction)
  client_side   wrapper DOM events present, ad server is first-party and
                names no new bidders

Documented ambiguous corner: a client-side publisher that points its wrapper
at an ad server hosted on a known demand-partner domain is indistinguishable
from hybrid and will be classified as such.

The detector consumes only the trace itself, never the truth sidecar.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .domain import Facet, PartnerDirectory, decimal_str, lookup_partner, quantize_cpm, quantize_ms
from .tracegen import KIND_DOM, KIND_REQUEST, KIND_RESPONSE, Trace, url_host

HB_PARAM_KEYWORDS = ("bidder", "hb_partner", "hb_price", "hb_size")
HB_PARAM_PREFIX = "hb_"

# DOM events emitted by the wrapper's bid flow; render notifications alone
# also fire on server-side setups.
WRAPPER_DOM_EVENTS = frozenset(
    {"auctionInit", "requestBids", "bidRequested", "bidResponse", "auctionEnd", "bidWon"}
)


@dataclass(frozen=True)
class DetectedBid:
    partner: str
    cpm: Decimal
    latency_ms: Decimal | None
    late: bool
    channel: str


@dataclass(frozen=True)
class SlotAuction:
    slot_id: str
    size: str | None
    bids: tuple[DetectedBid, ...]
    winner_partner: str | None
    winner_cpm: Decimal | None


@dataclass(frozen=True)
class DetectionResult:
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


class _Facts:
    """What one pass over a trace's events, in file order, saw.

    The facet, bids, winners, late count and latency are all derived from
    these facts.  Hosts are taken once per distinct URL and looked up in the
    directory once per distinct host.
    """

    def __init__(self, trace: Trace, directory: PartnerDirectory):
        self.directory = directory
        self.hosts: dict[str | None, str | None] = {}
        self.resolved: dict[str, str | None] = {}
        self.is_hb = False
        self.wrapper = False  # any wrapper bid-flow DOM event
        self.auction_end = None  # of the first auctionEnd in file order
        self.first_outbound = None
        self.request_ts: dict[str, Decimal] = {}  # bidder -> its first outbound request
        self.ad_request = None  # the first outbound request without a bidder
        self.bid_responses = []
        self.slot_events = []  # bidWon and render events
        self.client_bidders: set[str] = set()
        self.partners: set[str] = set()
        unmatched = []  # responses without a bidder

        for event in trace.events:
            params = event.params
            if event.kind == KIND_DOM:
                self.is_hb = True
                name = event.event_name
                self.wrapper = self.wrapper or name in WRAPPER_DOM_EVENTS
                if name == "bidRequested" or name == "bidResponse":
                    bidder = params.get("bidder")
                    if bidder is not None:
                        self.client_bidders.add(bidder)
                        if bidder:
                            self.partners.add(bidder)
                    if name == "bidResponse":
                        self.bid_responses.append(event)
                elif name == "auctionEnd":
                    if self.auction_end is None:
                        self.auction_end = event.ts_ms
                elif name in ("bidWon", "slotRenderEnded", "adRenderFailed"):
                    self.slot_events.append(event)
                continue
            bidder = params.get("bidder")
            if event.kind == KIND_REQUEST and event.direction == "outbound":
                if self.first_outbound is None or event.ts_ms < self.first_outbound:
                    self.first_outbound = event.ts_ms
                if bidder is None:
                    self.ad_request = self.ad_request or event
                elif bidder not in self.request_ts:
                    self.request_ts[bidder] = event.ts_ms
            if bidder is not None:
                host = self.host(event.url)
                resolved = self.lookup(host) if host else None
                self.client_bidders.add(resolved or bidder)
                if host:
                    self.partners.add(resolved or f"unknown:{host}")
            elif event.kind == KIND_RESPONSE:
                unmatched.append(event)
            # Known partner or not, HB-parameter traffic is HB activity;
            # attribution differs, detection does not.
            if not self.is_hb and any(
                k in HB_PARAM_KEYWORDS or k.startswith(HB_PARAM_PREFIX) for k in params
            ):
                self.is_hb = self.host(event.url) is not None

        # The ad server's responses: from the request's host, at or after it.
        self.ad_responses = []
        if self.ad_request is not None:
            host, ts = self.host(self.ad_request.url), self.ad_request.ts_ms
            self.ad_responses = [e for e in unmatched if e.ts_ms >= ts and self.host(e.url) == host]

    def host(self, url: str | None) -> str | None:
        if url not in self.hosts:
            self.hosts[url] = url_host(url)
        return self.hosts[url]

    def lookup(self, host: str) -> str | None:
        if host not in self.resolved:
            self.resolved[host] = lookup_partner(host, self.directory)
        return self.resolved[host]

    def facet(self) -> Facet:
        if not self.wrapper:
            return Facet.SERVER_SIDE
        for response in self.ad_responses:
            named = response.params.get("hb_partner")
            if named and named not in self.client_bidders:
                return Facet.HYBRID
        host = self.host(self.ad_request.url) if self.ad_request is not None else None
        return Facet.HYBRID if host and self.lookup(host) else Facet.CLIENT_SIDE


def extract_auction_metadata(trace: Trace, directory: PartnerDirectory) -> DetectionResult:
    """Pull partners, per-slot bids, winners, late counts, and the HB latency
    (first outbound bid request to ad-server response) out of one trace."""
    facts = _Facts(trace, directory)
    if not facts.is_hb:
        return DetectionResult(trace.site_id, trace.round_index)
    facet = facts.facet()
    partners = facts.partners
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

    auction_end = facts.auction_end
    for event in facts.bid_responses:
        cpm = _price(event.params)
        if cpm is None:
            warnings += 1
            continue
        bidder = event.params.get("bidder", "")
        note_slot(event.slot_id, event.params.get("hb_size"))
        late = auction_end is not None and event.ts_ms > auction_end
        late_count += late
        latency = event.ts_ms - facts.request_ts.get(bidder, Decimal(0))
        bid = DetectedBid(bidder or "unknown:", cpm, quantize_ms(latency), late, "client")
        slot_bids.setdefault(event.slot_id or "", []).append(bid)

    for event in facts.slot_events:
        if event.event_name == "bidWon":
            cpm = _price(event.params)
            if cpm is None:
                warnings += 1
                continue
            note_slot(event.slot_id, event.params.get("hb_size"))
            slot_winner[event.slot_id or ""] = (event.params.get("bidder", ""), cpm)
        else:
            note_slot(event.slot_id, event.params.get("hb_size"))

    hb_latency = None
    request, responses = facts.ad_request, facts.ad_responses
    if responses:
        hb_latency = quantize_ms(responses[0].ts_ms - (facts.first_outbound or Decimal(0)))
        host = facts.host(request.url)
        if host:
            resolved = facts.lookup(host)
            if resolved:
                partners.add(resolved)
            elif facet is Facet.SERVER_SIDE:
                partners.add(f"unknown:{host}")
        for response in responses:
            named = response.params.get("hb_partner")
            if not named:
                note_slot(response.slot_id, None)
                continue
            cpm = _price(response.params)
            if cpm is None:
                warnings += 1
                continue
            note_slot(response.slot_id, response.params.get("hb_size"))
            if response.slot_id not in slot_winner:
                slot_winner[response.slot_id or ""] = (named, cpm)
            if named not in facts.client_bidders:
                # New information only: a server-side price the client flow
                # never showed.  Client winners echoed back are not re-added.
                slot_bids.setdefault(response.slot_id or "", []).append(
                    DetectedBid(named, cpm, None, False, "ad_server")
                )

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
