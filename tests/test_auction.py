"""Protocol state machines checked against independent straight-line oracles."""

import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_partner, make_scenario, make_slot
from golden.make_simulate_golden import digests, simulate_cases
from hbarena.auction import (
    Bid,
    compute_send_time,
    run_scenario,
    select_winner,
)
from hbarena.domain import (
    BidModel,
    ConfigurationError,
    DemandPartnerSpec,
    Facet,
    LatencyModel,
    WrapperPolicy,
)

D = Decimal
SIMULATE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "simulate_golden.json").read_text())["cases"]


def bid(pid, cpm, arrived="100", late=False, slot="slot0"):
    return Bid(
        partner_id=pid,
        cpm=D(cpm),
        requested_at_ms=D(0),
        arrived_at_ms=D(arrived),
        late=late,
        channel="client",
    )


class TestSelectWinner:
    def test_argmax(self):
        bids = [bid("A", "0.5"), bid("B", "0.2")]
        assert select_winner(bids, D("0.1")) == ("A", D("0.5"))

    def test_floor_unmet(self):
        bids = [bid("A", "0.05"), bid("B", "0.08")]
        assert select_winner(bids, D("0.1")) is None

    def test_tie_broken_by_arrival(self):
        bids = [bid("A", "0.5", arrived="100"), bid("B", "0.5", arrived="50")]
        assert select_winner(bids, D(0)) == ("B", D("0.5"))

    def test_tie_broken_by_partner_id(self):
        bids = [bid("B", "0.5", arrived="100"), bid("A", "0.5", arrived="100")]
        assert select_winner(bids, D(0)) == ("A", D("0.5"))

    def test_late_bids_never_win(self):
        bids = [bid("A", "0.9", late=True), bid("B", "0.2")]
        assert select_winner(bids, D("0.1")) == ("B", D("0.2"))


class TestComputeSendTime:
    def test_wait_timeout_below_cap(self):
        assert compute_send_time(WrapperPolicy.WAIT_TIMEOUT, 3000, [D(100), D(200)]) == D(200)

    def test_wait_timeout_capped(self):
        assert compute_send_time(WrapperPolicy.WAIT_TIMEOUT, 3000, [D(100), D(4000)]) == D(3000)

    def test_immediate_is_zero(self):
        assert compute_send_time(WrapperPolicy.IMMEDIATE, 3000, [D(100), D(200)]) == D(0)

    def test_wait_all_caps_at_timeout(self):
        assert compute_send_time(WrapperPolicy.WAIT_ALL, 3000, [D(100), D(5000)]) == D(3000)

    def test_empty_arrivals(self):
        assert compute_send_time(WrapperPolicy.WAIT_TIMEOUT, 3000, []) == D(0)

    @given(
        arrivals=st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=12),
        timeout=st.integers(min_value=1, max_value=5000),
        policy=st.sampled_from([WrapperPolicy.WAIT_ALL, WrapperPolicy.WAIT_TIMEOUT, WrapperPolicy.IMMEDIATE]),
    )
    def test_matches_oracle(self, arrivals, timeout, policy):
        got = compute_send_time(policy, timeout, [D(a) for a in arrivals])
        assert got == oracles.send_time(policy.value, timeout, [D(a) for a in arrivals])


class TestClientSide:
    def test_two_partner_fixture_matches_hand_trace(self, two_partner_roster):
        scenario = make_scenario(partners=("p1", "p2"))
        outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
        send, response, total, late = oracles.client_side_totals(
            [D(100), D(200)], D(150), "wait_timeout", 3000
        )
        assert outcome.wrapper_send_time_ms == send == D(200)
        assert outcome.ad_server_response_time_ms == response == D(350)
        assert outcome.total_latency_ms == total == D(350)
        assert outcome.late_bid_count == sum(late) == 0
        assert outcome.slots[0].winner == ("p1", D("0.5"))
        assert outcome.slots[0].filled and not outcome.slots[0].fallback_used
        assert outcome.winner_notified

    def test_immediate_policy_loses_every_bid(self, two_partner_roster):
        scenario = make_scenario(partners=("p1", "p2"), policy=WrapperPolicy.IMMEDIATE)
        outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
        assert outcome.wrapper_send_time_ms == D(0)
        assert outcome.late_bid_count == 2
        assert all(b.late for s in outcome.slots for b in s.bids)
        assert not outcome.slots[0].filled
        assert outcome.slots[0].fallback_used
        assert outcome.total_latency_ms == D(150)
        assert not outcome.winner_notified

    def test_silent_partner_yields_no_bids(self):
        roster = {"p1": make_partner("p1", response_probability="0")}
        scenario = make_scenario(partners=("p1",))
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.slots[0].bids == ()
        assert not outcome.slots[0].filled

    def test_silent_partner_holds_wrapper_until_timeout(self):
        roster = {
            "p1": make_partner("p1", latency_ms="100"),
            "p2": make_partner("p2", response_probability="0"),
        }
        scenario = make_scenario(partners=("p1", "p2"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.wrapper_send_time_ms == D(3000)

    def test_arrival_at_send_time_is_on_time(self):
        roster = {
            "p1": make_partner("p1", latency_ms="200"),
            "p2": make_partner("p2", latency_ms="200", bid_cpm="0.3"),
        }
        scenario = make_scenario(partners=("p1", "p2"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.wrapper_send_time_ms == D(200)
        assert outcome.late_bid_count == 0

    def test_unresolved_partner_is_config_error(self, two_partner_roster):
        scenario = make_scenario(partners=("p1", "ghost"))
        with pytest.raises(ConfigurationError):
            run_scenario(scenario, two_partner_roster, master_seed=1)

    def test_multi_slot_partner_bids_every_slot(self, two_partner_roster):
        scenario = make_scenario(
            partners=("p1", "p2"),
            slots=[make_slot("slot0"), make_slot("slot1", 728, 90)],
        )
        outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
        assert [len(s.bids) for s in outcome.slots] == [2, 2]


class TestServerSide:
    def test_single_round_trip(self):
        roster = {
            "b1": make_partner("b1", bid_cpm="0.4"),
            "b2": make_partner("b2", bid_cpm="0.6"),
            "adserve": make_partner("adserve"),
        }
        scenario = make_scenario(
            facet=Facet.SERVER_SIDE,
            partners=("b1", "b2"),
            ad_server_partner_id="adserve",
            ad_server_latency_ms="250",
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.total_latency_ms == D(250)
        assert outcome.wrapper_send_time_ms == D(0)
        assert outcome.slots[0].winner == ("b2", D("0.6"))
        assert outcome.late_bid_count == 0
        assert all(b.channel == "ad_server" for b in outcome.slots[0].bids)

    def test_backend_below_floor_is_unfilled(self):
        roster = {
            "b1": make_partner("b1", bid_cpm="0.05"),
            "adserve": make_partner("adserve"),
        }
        scenario = make_scenario(
            facet=Facet.SERVER_SIDE, partners=("b1",), ad_server_partner_id="adserve"
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.slots[0].winner is None
        assert outcome.slots[0].fallback_used

    def test_timeout_never_applies_to_single_request(self):
        roster = {"b1": make_partner("b1"), "adserve": make_partner("adserve")}
        base = dict(facet=Facet.SERVER_SIDE, partners=("b1",), ad_server_partner_id="adserve")
        wait_timeout = run_scenario(
            make_scenario(policy=WrapperPolicy.WAIT_TIMEOUT, **base), roster, master_seed=1
        )
        wait_all = run_scenario(
            make_scenario(policy=WrapperPolicy.WAIT_ALL, **base), roster, master_seed=1
        )
        immediate = run_scenario(
            make_scenario(policy=WrapperPolicy.IMMEDIATE, **base), roster, master_seed=1
        )
        assert wait_timeout == wait_all == immediate

    def test_missing_entity_is_config_error(self):
        roster = {"b1": make_partner("b1")}
        scenario = make_scenario(facet=Facet.SERVER_SIDE, partners=("b1",))
        with pytest.raises(ConfigurationError):
            run_scenario(scenario, roster, master_seed=1)


class TestHybrid:
    def _roster(self, client_cpm, server_cpm):
        return {
            "A": make_partner("A", bid_cpm=client_cpm),
            "srv": make_partner("srv", bid_cpm=server_cpm),
        }

    def test_server_bid_wins_union(self):
        scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
        outcome = run_scenario(scenario, self._roster("0.3", "0.5"), master_seed=1)
        assert outcome.slots[0].winner == ("srv", D("0.5"))

    def test_client_bid_wins_union(self):
        scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
        outcome = run_scenario(scenario, self._roster("0.7", "0.5"), master_seed=1)
        assert outcome.slots[0].winner == ("A", D("0.7"))

    def test_union_degenerates_to_server_bid_when_clients_late(self):
        roster = self._roster("0.9", "0.2")
        scenario = make_scenario(
            facet=Facet.HYBRID,
            partners=("A",),
            ad_server_partner_id="srv",
            policy=WrapperPolicy.IMMEDIATE,
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.slots[0].winner == ("srv", D("0.2"))
        assert outcome.slots[0].filled

    def test_total_latency_is_send_plus_ad_server(self):
        scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
        outcome = run_scenario(scenario, self._roster("0.3", "0.5"), master_seed=1)
        assert outcome.total_latency_ms == D(100) + D(150)

    def test_silent_roster_partner_holds_entity_bid_until_timeout(self):
        roster = {
            "A": make_partner("A", bid_cpm="0.9", response_probability="0"),
            "srv": make_partner("srv", bid_cpm="0.5"),
        }
        scenario = make_scenario(
            facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv", timeout_ms=800
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.wrapper_send_time_ms == D(800)
        (entity_bid,) = outcome.slots[0].bids
        assert entity_bid.partner_id == "srv" and entity_bid.channel == "ad_server"
        assert entity_bid.requested_at_ms == entity_bid.arrived_at_ms == D(800)
        assert not entity_bid.late
        assert outcome.slots[0].winner == ("srv", D("0.5"))


class TestWaterfall:
    def test_second_tier_wins_after_first_declines(self):
        roster = {
            "A": make_partner("A", latency_ms="150", response_probability="0"),
            "B": make_partner("B", latency_ms="180", bid_cpm="0.3"),
        }
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        tried, winner, total = oracles.waterfall_totals(
            [("A", None, D(150)), ("B", D("0.3"), D(180))], D("0.1")
        )
        assert outcome.winner == winner == ("B", D("0.3"))
        assert outcome.total_latency_ms == total == D(330)
        assert [t.partner_id for t in outcome.tiers_tried] == ["A", "B"]

    def test_first_tier_win_stops_cascade(self):
        roster = {
            "A": make_partner("A", latency_ms="150", bid_cpm="0.4"),
            "B": make_partner("B", latency_ms="180", bid_cpm="0.9"),
        }
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.winner == ("A", D("0.4"))
        assert len(outcome.tiers_tried) == 1
        assert outcome.total_latency_ms == D(150)

    def test_all_tiers_decline(self):
        roster = {
            "A": make_partner("A", response_probability="0"),
            "B": make_partner("B", bid_cpm="0.01"),
        }
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert outcome.winner is None
        assert outcome.fallback_used
        assert len(outcome.tiers_tried) == 2

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), n_tiers=st.integers(min_value=1, max_value=6))
    def test_total_latency_is_sum_of_tier_latencies(self, seed, n_tiers):
        roster = {
            f"t{i}": DemandPartnerSpec(
                partner_id=f"t{i}",
                domains=(f"t{i}.example.net",),
                latency_model=LatencyModel.lognormal(4.5, 0.8),
                bid_model=BidModel.lognormal(-2.0, 1.0),
                response_probability=D("0.7"),
            )
            for i in range(n_tiers)
        }
        scenario = make_scenario(
            facet=Facet.WATERFALL_ONLY, partners=tuple(roster), slots=[make_slot(floor="0.2")]
        )
        outcome = run_scenario(scenario, roster, master_seed=seed)
        assert outcome.total_latency_ms == sum(t.latency_ms for t in outcome.tiers_tried)
        assert outcome.total_latency_ms.as_tuple().exponent == -3

    def test_empty_tiers_config_error(self):
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=())
        with pytest.raises(ConfigurationError):
            run_scenario(scenario, {}, master_seed=1)


_cpms = st.decimals(min_value=0, max_value=10, places=4)


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=25),
            _cpms,
            st.integers(min_value=0, max_value=4000),
            st.booleans(),
        ),
        min_size=0,
        max_size=16,
    ),
    floor=_cpms,
)
def test_select_winner_equals_brute_force(data, floor):
    bids = [
        bid(f"p{pid:02d}", str(cpm), arrived=str(arr), late=late) for pid, cpm, arr, late in data
    ]
    expected = oracles.brute_force_winner(
        [(b.partner_id, b.cpm, b.arrived_at_ms, b.late) for b in bids], floor
    )
    assert select_winner(bids, floor) == expected


@given(
    scale=st.decimals(min_value="0.01", max_value=100, places=2),
    data=st.lists(st.tuples(st.integers(0, 20), _cpms, st.integers(0, 400)), min_size=1, max_size=10),
    floor=_cpms,
)
def test_winner_identity_invariant_under_price_scaling(scale, data, floor):
    bids = [bid(f"p{pid:02d}", str(cpm), arrived=str(arr)) for pid, cpm, arr in data]
    scaled = [
        bid(b.partner_id, str(b.cpm * scale), arrived=str(b.arrived_at_ms)) for b in bids
    ]
    before = select_winner(bids, floor)
    after = select_winner(scaled, floor * scale)
    assert (before is None) == (after is None)
    if before is not None:
        assert before[0] == after[0]


@settings(max_examples=40, deadline=None)
@given(
    latencies=st.lists(st.integers(min_value=1, max_value=2900), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_wait_all_send_time_identity(latencies, seed):
    roster = {
        f"p{i}": make_partner(f"p{i}", latency_ms=str(ms)) for i, ms in enumerate(latencies)
    }
    scenario = make_scenario(partners=tuple(roster), policy=WrapperPolicy.WAIT_ALL)
    outcome = run_scenario(scenario, roster, master_seed=seed)
    assert outcome.wrapper_send_time_ms == max(D(ms) for ms in latencies)


@settings(max_examples=40, deadline=None)
@given(latencies=st.lists(st.integers(min_value=1, max_value=2900), min_size=1, max_size=7))
def test_wait_all_adding_partner_never_reduces_send_time(latencies):
    roster = {f"p{i}": make_partner(f"p{i}", latency_ms=str(ms)) for i, ms in enumerate(latencies)}
    scenario = make_scenario(partners=tuple(roster), policy=WrapperPolicy.WAIT_ALL)
    base = run_scenario(scenario, roster, master_seed=3).wrapper_send_time_ms
    roster["extra"] = make_partner("extra", latency_ms="777")
    grown = make_scenario(partners=tuple(roster), policy=WrapperPolicy.WAIT_ALL)
    assert run_scenario(grown, roster, master_seed=3).wrapper_send_time_ms >= base


def test_hb_beats_waterfall_structurally():
    """With identical per-partner samples, parallel collection (max + ad-server
    round trip) cannot exceed a two-tier cascade (sum) when the ad-server trip
    is no slower than the second tier."""
    roster = {
        "A": make_partner("A", latency_ms="400", bid_cpm="0.01"),  # below floor
        "B": make_partner("B", latency_ms="300", bid_cpm="0.4"),
    }
    hb_scenario = make_scenario(partners=("A", "B"), ad_server_latency_ms="200")
    wf_scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
    hb = run_scenario(hb_scenario, roster, master_seed=5)
    wf = run_scenario(wf_scenario, roster, master_seed=5)
    assert len(wf.tiers_tried) == 2
    assert hb.total_latency_ms <= wf.total_latency_ms


def test_simulation_matches_golden_digests(tmp_path):
    """Outcome rows, truth records and traces of every canned scenario at its
    own seed and of a render-failure cut of market_mix, pinned by digest."""
    seen = {name: {"seed": seed, **digests(sf, seed)} for name, sf, seed in simulate_cases(tmp_path)}
    assert seen == SIMULATE_GOLDEN
