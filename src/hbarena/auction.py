"""Protocol state machines: client-side, server-side, and hybrid header
bidding in one round, plus the sequential waterfall baseline.

Each run is a pure function of (scenario, resolved partner specs, seed,
round index) and produces a ground-truth outcome.  A header-bidding round
has two partner lists: the client partners, which the wrapper in the page
asks for bids (the roster of a client-side or hybrid site), and the server
partners, whose bids the ad-server entity collects itself (the roster of a
server-side site, the entity alone for a hybrid one).

- Every client partner is asked at t=0; one that answers arrives after its
  sampled latency with a bid for every slot.
- The wrapper hands the collected bids to the ad server at the send time:
  at once under the ``immediate`` policy, otherwise when the last client
  partner has answered, capped at the timeout.  A silent client partner
  keeps a waiting wrapper until the timeout.  A server-side site has no
  client partners, so it sends at 0.
- A client bid is late exactly when it arrives strictly after the send
  time; one arriving at the send time still counts.  Server bids are filed
  after the client bids, each list in its order, requested and arrived at
  the send time, and are never late.
- Each slot goes to its highest on-time bid meeting the floor; a filled
  slot then fails to render with the site's ``render_fail_probability``.
- The ad server answers at the send time plus its sampled latency.
"""

from __future__ import annotations

from decimal import Decimal
from functools import partial
from typing import Mapping, NamedTuple

from .domain import (
    CHANNEL_AD_SERVER,
    CHANNEL_CLIENT,
    MS_LIMIT,
    ConfigurationError,
    DemandPartnerSpec,
    Facet,
    WebsiteScenario,
    WrapperPolicy,
    quantize_ms,
)
from .netsim import RngStream, sample_latency, sample_partner_bids


class Bid(NamedTuple):
    partner_id: str
    cpm: Decimal
    requested_at_ms: Decimal
    arrived_at_ms: Decimal
    late: bool
    channel: str


class SlotOutcome(NamedTuple):
    slot_id: str
    size: str
    floor_price: Decimal
    bids: tuple[Bid, ...]
    winner: tuple[str, Decimal] | None
    render_failed: bool

    @property
    def filled(self) -> bool:
        return self.winner is not None

    @property
    def fallback_used(self) -> bool:
        return self.winner is None


class AuctionOutcome(NamedTuple):
    site_id: str
    round_index: int
    facet: Facet
    slots: tuple[SlotOutcome, ...]
    wrapper_send_time_ms: Decimal
    ad_server_response_time_ms: Decimal

    @property
    def total_latency_ms(self) -> Decimal:
        return self.ad_server_response_time_ms

    @property
    def winner_notified(self) -> bool:
        return any(slot.filled and not slot.render_failed for slot in self.slots)

    @property
    def late_bid_count(self) -> int:
        return sum(1 for slot in self.slots for bid in slot.bids if bid.late)


class TierTrial(NamedTuple):
    partner_id: str
    bid: Decimal | None
    latency_ms: Decimal


class WaterfallOutcome(NamedTuple):
    site_id: str
    round_index: int
    slot_id: str
    tiers_tried: tuple[TierTrial, ...]
    winner: tuple[str, Decimal] | None
    total_latency_ms: Decimal

    facet: Facet = Facet.WATERFALL_ONLY

    @property
    def fallback_used(self) -> bool:
        return self.winner is None


def select_winner(bids, floor: Decimal) -> tuple[str, Decimal] | None:
    """Highest on-time bid meeting the floor for one slot.

    Ties go to the earliest arrival, then the lexicographically smallest
    partner id, so replays are stable.
    """
    qualifying = [b for b in bids if not b.late and b.cpm >= floor]
    if not qualifying:
        return None
    best = min(qualifying, key=lambda b: (-b.cpm, b.arrived_at_ms, b.partner_id))
    return best.partner_id, best.cpm


def compute_send_time(policy: WrapperPolicy, timeout_ms: int, bid_arrivals) -> Decimal:
    """When the wrapper forwards collected bids to the ad server.

    Arrivals are absolute times from round start.  Both waiting policies cap
    at the timeout; an empty arrival list means there is nothing to wait for.
    A misconfigured `immediate` wrapper fires at once, turning every
    response into a late bid.
    """
    if policy is WrapperPolicy.IMMEDIATE:
        return Decimal(0)
    arrivals = [quantize_ms(a) for a in bid_arrivals]
    if not arrivals:
        return Decimal(0)
    timeout = quantize_ms(timeout_ms)
    latest = max(arrivals)
    return latest if latest < timeout else timeout


def _resolve(partners: Mapping[str, DemandPartnerSpec], pid: str, site_id: str) -> DemandPartnerSpec:
    spec = partners.get(pid)
    if spec is None:
        raise ConfigurationError(f"site {site_id!r}: partner {pid!r} is not defined")
    return spec


def _time(value: Decimal, site_id: str, what: str) -> Decimal:
    """``value``, a time in the site's round, which its trace can hold only below ``MS_LIMIT``."""
    if value >= MS_LIMIT:
        raise ConfigurationError(f"site {site_id!r}: {what} {value} ms is not below {MS_LIMIT} ms")
    return value


def run_scenario(
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
    master_seed: int,
    round_index: int = 0,
) -> AuctionOutcome | WaterfallOutcome | None:
    """One round of the site's protocol, dispatched on its facet; no_ads
    sites produce no auction at all."""
    facet = scenario.facet
    if facet is Facet.NO_ADS:
        return None
    site_id = scenario.site_id
    stream = partial(RngStream, master_seed, site_id, round_index)  # the round's stream for a purpose
    if facet is Facet.WATERFALL_ONLY:
        return _waterfall_round(scenario, partners, round_index, stream)
    entity = []
    if facet is not Facet.CLIENT_SIDE:
        if not scenario.ad_server_partner_id:
            raise ConfigurationError(f"site {site_id!r}: {facet.value} requires ad_server_partner_id")
        entity = [_resolve(partners, scenario.ad_server_partner_id, site_id)]
    roster = [_resolve(partners, pid, site_id) for pid in scenario.partners]
    client, server = ([], roster) if facet is Facet.SERVER_SIDE else (roster, entity)

    n_slots = len(scenario.slots)
    filed = []  # (partner id, cpm per slot, requested, arrived, channel), client bids first
    arrivals = []  # a silent client partner counts as arriving at the timeout
    for spec in client:
        pid = spec.partner_id
        cpms = sample_partner_bids(spec.bid_model, stream(f"bid:{pid}"), spec.response_probability, n_slots)
        if cpms is None:
            arrivals.append(scenario.timeout_ms)
        else:
            arrivals.append(sample_latency(spec.latency_model, stream(f"latency:{pid}")))
            filed.append((pid, cpms, Decimal(0), arrivals[-1], CHANNEL_CLIENT))
    send_time = compute_send_time(scenario.wrapper_policy, scenario.timeout_ms, arrivals)
    for spec in server:
        pid = spec.partner_id
        cpms = sample_partner_bids(spec.bid_model, stream(f"server_bid:{pid}"), spec.response_probability,
                                   n_slots)
        if cpms is not None:
            filed.append((pid, cpms, send_time, send_time, CHANNEL_AD_SERVER))

    render_fail = float(scenario.render_fail_probability)
    slots = []
    for i, slot in enumerate(scenario.slots):
        bids = tuple(Bid(pid, cpms[i], requested, arrived, arrived > send_time, channel)
                     for pid, cpms, requested, arrived, channel in filed)
        winner = select_winner(bids, slot.floor_price)
        failed = (winner is not None and render_fail > 0
                  and stream(f"render:{slot.slot_id}").uniform() < render_fail)
        slots.append(SlotOutcome(slot.slot_id, slot.size, slot.floor_price, bids, winner, failed))

    adserver_latency = sample_latency(scenario.ad_server_latency, stream("adserver_latency"))
    response = _time(quantize_ms(send_time + adserver_latency), site_id, "the ad server's response time")
    return AuctionOutcome(site_id, round_index, facet, tuple(slots), send_time, response)


def _waterfall_round(scenario, partners, round_index, stream) -> WaterfallOutcome:
    """Sequential tier trial for the site's primary slot: each tier costs its
    full response time, and the first floor-meeting bid stops the cascade."""
    if not scenario.partners:
        raise ConfigurationError(f"site {scenario.site_id!r}: waterfall needs at least one tier")
    if not scenario.slots:
        raise ConfigurationError(f"site {scenario.site_id!r}: waterfall needs an ad slot")
    slot = scenario.slots[0]
    tier_specs = [_resolve(partners, pid, scenario.site_id) for pid in scenario.partners]

    tried = []
    winner = None
    total = Decimal(0)
    for spec in tier_specs:
        lat = sample_latency(spec.latency_model, stream(f"latency:{spec.partner_id}"))
        bids = sample_partner_bids(spec.bid_model, stream(f"bid:{spec.partner_id}"), spec.response_probability, 1)
        cpm = bids[0] if bids else None
        tried.append(TierTrial(spec.partner_id, cpm, lat))
        total = quantize_ms(total + lat)
        if cpm is not None and cpm >= slot.floor_price:
            winner = (spec.partner_id, cpm)
            break
    return WaterfallOutcome(
        site_id=scenario.site_id,
        round_index=round_index,
        slot_id=slot.slot_id,
        tiers_tried=tuple(tried),
        winner=winner,
        total_latency_ms=_time(total, scenario.site_id, "the waterfall's total latency"),
    )
