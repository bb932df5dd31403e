"""Protocol state machines: client-side, server-side, and hybrid header
bidding plus the sequential waterfall baseline.

Each run is a pure function of (scenario, resolved partner specs, seed,
round index) and produces a ground-truth outcome.  A bid is late exactly
when it arrives strictly after the wrapper hands the collected bids to the
ad server; a bid arriving at the handoff instant still counts.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Mapping, NamedTuple

from .domain import (
    ConfigurationError,
    DemandPartnerSpec,
    Facet,
    WebsiteScenario,
    WrapperPolicy,
    quantize_ms,
)
from .netsim import RngStream, sample_latency, sample_partner_bids

CHANNEL_CLIENT = "client"
CHANNEL_AD_SERVER = "ad_server"


class Bid(NamedTuple):
    partner_id: str
    slot_id: str
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
    filled: bool
    fallback_used: bool
    render_failed: bool = False


class AuctionOutcome(NamedTuple):
    site_id: str
    round_index: int
    facet: Facet
    slots: tuple[SlotOutcome, ...]
    wrapper_send_time_ms: Decimal
    ad_server_response_time_ms: Decimal
    total_latency_ms: Decimal
    winner_notified: bool

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
    fallback_used: bool

    facet: Facet = Facet.WATERFALL_ONLY


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


def _client_responses(scenario, partners, master_seed, round_index):
    """Sample (arrival, per-slot cpms) for each responding roster partner."""
    responses: dict[str, tuple[Decimal, list[Decimal]]] = {}
    n_slots = len(scenario.slots)
    for pid in scenario.partners:
        spec = _resolve(partners, pid, scenario.site_id)
        bid_stream = RngStream(master_seed, scenario.site_id, round_index, f"bid:{pid}")
        cpms = sample_partner_bids(spec.bid_model, bid_stream, spec.response_probability, n_slots)
        if cpms is None:
            continue
        lat_stream = RngStream(master_seed, scenario.site_id, round_index, f"latency:{pid}")
        responses[pid] = (sample_latency(spec.latency_model, lat_stream), cpms)
    return responses


def _effective_send_time(scenario, responses) -> Decimal:
    # A partner that never answers keeps a waiting wrapper on the hook until
    # the timeout; the immediate policy does not wait for anyone.
    if scenario.wrapper_policy is WrapperPolicy.IMMEDIATE:
        return Decimal(0)
    if len(responses) < len(scenario.partners):
        return quantize_ms(scenario.timeout_ms)
    return compute_send_time(
        scenario.wrapper_policy, scenario.timeout_ms, [arr for arr, _ in responses.values()]
    )


def _render_failures(scenario, filled_slot_ids, master_seed, round_index) -> set[str]:
    if scenario.render_fail_probability <= 0:
        return set()
    failed = set()
    for slot_id in filled_slot_ids:
        stream = RngStream(master_seed, scenario.site_id, round_index, f"render:{slot_id}")
        if stream.uniform() < float(scenario.render_fail_probability):
            failed.add(slot_id)
    return failed


def _slot_outcomes(scenario, bids_by_slot, master_seed, round_index) -> tuple[SlotOutcome, ...]:
    """Per-slot winners, then the render failures of the filled slots."""
    out = []
    for slot in scenario.slots:
        bids = tuple(bids_by_slot.get(slot.slot_id, ()))
        winner = select_winner(bids, slot.floor_price)
        filled = winner is not None
        out.append(
            SlotOutcome(
                slot_id=slot.slot_id,
                size=slot.size,
                floor_price=slot.floor_price,
                bids=bids,
                winner=winner,
                filled=filled,
                fallback_used=not filled,
            )
        )
    failed = _render_failures(scenario, [s.slot_id for s in out if s.filled], master_seed, round_index)
    return tuple(s._replace(render_failed=True) if s.slot_id in failed else s for s in out)


def _add_bids(bids_by_slot, slots, pid, cpms, requested_at, arrived_at, late, channel) -> None:
    """Append one partner's bid for each slot; all share the same timing."""
    for slot, cpm in zip(slots, cpms):
        bids_by_slot[slot.slot_id].append(Bid(pid, slot.slot_id, cpm, requested_at, arrived_at, late, channel))


def _add_server_bids(bids_by_slot, scenario, spec, master_seed, round_index, at) -> None:
    """The bids the ad-server entity collects from spec; they materialize at
    the ad server at time `at` and can never be late."""
    stream = RngStream(master_seed, scenario.site_id, round_index, f"server_bid:{spec.partner_id}")
    cpms = sample_partner_bids(spec.bid_model, stream, spec.response_probability, len(scenario.slots))
    if cpms is not None:
        _add_bids(bids_by_slot, scenario.slots, spec.partner_id, cpms, at, at, False, CHANNEL_AD_SERVER)


def _auction_outcome(scenario, bids_by_slot, master_seed, round_index, send_time) -> AuctionOutcome:
    """Per-slot winners and the ad server's answer, sent at send_time."""
    adserver_latency = sample_latency(
        scenario.ad_server_latency,
        RngStream(master_seed, scenario.site_id, round_index, "adserver_latency"),
    )
    slots = _slot_outcomes(scenario, bids_by_slot, master_seed, round_index)
    response_at = quantize_ms(send_time + adserver_latency)
    return AuctionOutcome(
        site_id=scenario.site_id,
        round_index=round_index,
        facet=scenario.facet,
        slots=slots,
        wrapper_send_time_ms=send_time,
        ad_server_response_time_ms=response_at,
        total_latency_ms=response_at,
        winner_notified=any(s.filled and not s.render_failed for s in slots),
    )


def run_scenario(
    scenario: WebsiteScenario,
    partners: Mapping[str, DemandPartnerSpec],
    master_seed: int,
    round_index: int = 0,
) -> AuctionOutcome | WaterfallOutcome | None:
    """One round of the site's protocol, dispatched on its facet; no_ads
    sites produce no auction at all."""
    facet = scenario.facet
    if facet is Facet.WATERFALL_ONLY:
        return _waterfall_round(scenario, partners, master_seed, round_index)
    if facet is Facet.NO_ADS:
        return None
    entity = None
    if facet is not Facet.CLIENT_SIDE:
        if not scenario.ad_server_partner_id:
            raise ConfigurationError(f"site {scenario.site_id!r}: {facet.value} requires ad_server_partner_id")
        entity = _resolve(partners, scenario.ad_server_partner_id, scenario.site_id)
    if facet is Facet.SERVER_SIDE:
        return _server_round(scenario, partners, master_seed, round_index)
    return _wrapper_round(scenario, partners, master_seed, round_index, entity)


def _wrapper_round(scenario, partners, master_seed, round_index, server_entity):
    """Client-side, and hybrid with ``server_entity``: parallel bid requests
    at t=0, wrapper handoff, then the ad server picks per-slot winners from
    the on-time bids.  A hybrid's entity merges its own bid (its internal
    auction's result) with them."""
    responses = _client_responses(scenario, partners, master_seed, round_index)
    send_time = _effective_send_time(scenario, responses)
    bids_by_slot: dict[str, list[Bid]] = {slot.slot_id: [] for slot in scenario.slots}
    for pid, (arrival, cpms) in responses.items():
        _add_bids(bids_by_slot, scenario.slots, pid, cpms, Decimal(0), arrival, arrival > send_time,
                  CHANNEL_CLIENT)
    if server_entity is not None:
        # The entity's own bids are pinned to the handoff instant.
        _add_server_bids(bids_by_slot, scenario, server_entity, master_seed, round_index, send_time)
    return _auction_outcome(scenario, bids_by_slot, master_seed, round_index, send_time)


def _server_round(scenario, partners, master_seed, round_index) -> AuctionOutcome:
    """Single round trip to the ad-server entity, which auctions the
    scenario's partner roster internally and returns only winner metadata."""
    bids_by_slot: dict[str, list[Bid]] = {slot.slot_id: [] for slot in scenario.slots}
    for pid in scenario.partners:
        spec = _resolve(partners, pid, scenario.site_id)
        _add_server_bids(bids_by_slot, scenario, spec, master_seed, round_index, Decimal(0))
    return _auction_outcome(scenario, bids_by_slot, master_seed, round_index, Decimal(0))


def _waterfall_round(scenario, partners, master_seed, round_index) -> WaterfallOutcome:
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
        lat = sample_latency(
            spec.latency_model,
            RngStream(master_seed, scenario.site_id, round_index, f"latency:{spec.partner_id}"),
        )
        bids = sample_partner_bids(
            spec.bid_model,
            RngStream(master_seed, scenario.site_id, round_index, f"bid:{spec.partner_id}"),
            spec.response_probability,
            1,
        )
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
        total_latency_ms=total,
        fallback_used=winner is None,
    )

