"""Detection and classification over simulator-generated traces.

The detector works from the trace alone; every assertion compares against
ground truth constructed independently by the auction engine.
"""

import builtins
from dataclasses import replace
from decimal import Decimal

import pytest

from conftest import make_partner, make_scenario
from hbarena.auction import run_scenario
from hbarena.detector import extract_auction_metadata, result_row
from hbarena.domain import Facet, PartnerDirectory
from hbarena.tracegen import KIND_DOM, KIND_REQUEST, KIND_RESPONSE, Trace, TraceEvent, emit_trace

D = Decimal

DIRECTORY = PartnerDirectory.from_mapping(
    {
        "p1.example.net": "p1",
        "p2.example.net": "p2",
        "A.example.net": "A",
        "B.example.net": "B",
        "b1.example.net": "b1",
        "b2.example.net": "b2",
        "adserve.example.org": "adserve",
        "srv.example.net": "srv",
    }
)


@pytest.fixture
def client_fixture(two_partner_roster):
    scenario = make_scenario(partners=("p1", "p2"))
    outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
    return emit_trace(outcome, scenario, two_partner_roster), outcome


@pytest.fixture
def server_fixture():
    roster = {
        "b1": make_partner("b1", bid_cpm="0.4"),
        "b2": make_partner("b2", bid_cpm="0.6"),
        "adserve": make_partner("adserve", "adserve.example.org"),
    }
    scenario = make_scenario(
        facet=Facet.SERVER_SIDE,
        partners=("b1", "b2"),
        ad_server_partner_id="adserve",
        ad_server_latency_ms="250",
    )
    outcome = run_scenario(scenario, roster, master_seed=1)
    return emit_trace(outcome, scenario, roster), outcome


@pytest.fixture
def waterfall_fixture():
    roster = {
        "A": make_partner("A", response_probability="0"),
        "B": make_partner("B", bid_cpm="0.3"),
    }
    scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
    outcome = run_scenario(scenario, roster, master_seed=1)
    return emit_trace(outcome, scenario, roster), outcome


def hybrid_fixture(client_cpm, server_cpm):
    roster = {
        "A": make_partner("A", bid_cpm=client_cpm),
        "srv": make_partner("srv", "srv.example.net", bid_cpm=server_cpm),
    }
    scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
    outcome = run_scenario(scenario, roster, master_seed=1)
    return emit_trace(outcome, scenario, roster), outcome


class TestDetectHB:
    def test_client_side_detected(self, client_fixture):
        assert extract_auction_metadata(client_fixture[0], DIRECTORY).is_hb is True

    def test_waterfall_not_detected(self, waterfall_fixture):
        assert extract_auction_metadata(waterfall_fixture[0], DIRECTORY).is_hb is False

    def test_empty_trace_not_detected(self):
        assert extract_auction_metadata(Trace("s", 0, ()), DIRECTORY).is_hb is False

    def test_server_side_detected_even_unfilled(self):
        roster = {
            "b1": make_partner("b1", bid_cpm="0.01"),
            "adserve": make_partner("adserve", "adserve.example.org"),
        }
        scenario = make_scenario(
            facet=Facet.SERVER_SIDE, partners=("b1",), ad_server_partner_id="adserve"
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        assert extract_auction_metadata(emit_trace(outcome, scenario, roster), DIRECTORY).is_hb is True


class TestClassifyFacet:
    def test_server_side(self, server_fixture):
        assert extract_auction_metadata(server_fixture[0], DIRECTORY).facet is Facet.SERVER_SIDE

    def test_client_side(self, client_fixture):
        assert extract_auction_metadata(client_fixture[0], DIRECTORY).facet is Facet.CLIENT_SIDE

    def test_hybrid_with_server_winner(self):
        trace, _ = hybrid_fixture("0.3", "0.5")
        assert extract_auction_metadata(trace, DIRECTORY).facet is Facet.HYBRID

    def test_hybrid_with_client_winner_still_hybrid_via_known_host(self):
        # The server entity lost, so no new bidder is named; the known
        # ad-server host is what gives the facet away.
        trace, _ = hybrid_fixture("0.7", "0.5")
        assert extract_auction_metadata(trace, DIRECTORY).facet is Facet.HYBRID

    def test_ambiguous_corner_client_site_with_partner_hosted_ad_server(self, two_partner_roster):
        # Documented corner: a client-side wrapper pointed at an ad server on
        # a known partner domain is indistinguishable from hybrid.
        roster = dict(two_partner_roster)
        roster["adserve"] = make_partner("adserve", "adserve.example.org")
        scenario = make_scenario(partners=("p1", "p2"), ad_server_partner_id="adserve")
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        assert extract_auction_metadata(trace, DIRECTORY).facet is Facet.HYBRID

    def test_contract_violation_on_non_hb_trace(self, waterfall_fixture):
        assert extract_auction_metadata(waterfall_fixture[0], DIRECTORY).facet is None


class TestExtraction:
    def test_client_fixture_metadata(self, client_fixture):
        trace, outcome = client_fixture
        result = extract_auction_metadata(trace, DIRECTORY)
        assert result.is_hb and result.facet is Facet.CLIENT_SIDE
        assert result.hb_latency_ms == outcome.total_latency_ms == D(350)
        assert result.late_bid_count == 0
        assert result.partners == ("p1", "p2")
        auction = result.auctions[0]
        assert auction.winner_partner == "p1"
        assert auction.winner_cpm == D("0.5")
        assert sorted(b.cpm for b in auction.bids) == [D("0.2"), D("0.5")]
        assert sorted(b.latency_ms for b in auction.bids) == [D(100), D(200)]

    def test_late_bid_counted_from_trace_alone(self):
        roster = {
            "p1": make_partner("p1", "p1.example.net", latency_ms="100"),
            "p2": make_partner("p2", "p2.example.net", latency_ms="4000"),
        }
        scenario = make_scenario(partners=("p1", "p2"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        result = extract_auction_metadata(trace, DIRECTORY)
        assert outcome.wrapper_send_time_ms == D(3000)
        assert result.late_bid_count == outcome.late_bid_count == 1

    def test_server_fixture_partner_is_endpoint_entity(self, server_fixture):
        trace, outcome = server_fixture
        result = extract_auction_metadata(trace, DIRECTORY)
        assert result.partners == ("adserve",)
        auction = result.auctions[0]
        assert [b.partner for b in auction.bids] == ["b2"]  # winner metadata only
        assert auction.bids[0].channel == "ad_server"
        assert result.hb_latency_ms == outcome.total_latency_ms == D(250)

    def test_hybrid_latency_agreement(self):
        trace, outcome = hybrid_fixture("0.3", "0.5")
        result = extract_auction_metadata(trace, DIRECTORY)
        assert result.hb_latency_ms == outcome.total_latency_ms

    def test_client_winner_not_double_counted_from_ad_server_echo(self, client_fixture):
        trace, _ = client_fixture
        result = extract_auction_metadata(trace, DIRECTORY)
        assert len(result.auctions[0].bids) == 2  # p1, p2 once each

    def test_unknown_host_with_hb_params_attributed(self):
        roster = {"px": make_partner("px", "unlisted.example.io")}
        scenario = make_scenario(partners=("px",))
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        result = extract_auction_metadata(trace, PartnerDirectory.from_mapping({}))
        assert result.is_hb
        assert "px" in result.partners  # bidder param still names it

    def test_unparsable_price_counts_warning(self, client_fixture):
        trace, _ = client_fixture
        events = []
        for event in trace.events:
            if event.kind == "dom_event" and event.event_name == "bidResponse":
                params = dict(event.params)
                params["hb_price"] = "not-a-number"
                from dataclasses import replace

                event = replace(event, params=params)
            events.append(event)
        mutated = Trace(trace.site_id, trace.round_index, tuple(events))
        result = extract_auction_metadata(mutated, DIRECTORY)
        assert result.warnings == 2
        assert result.auctions[0].bids == () or all(
            b.channel == "ad_server" for b in result.auctions[0].bids
        )


def late_bid_trace():
    """p1 bids 0.5 at 100 ms; p2 bids 0.9 at 4000 ms, after auctionEnd at 3000 ms."""
    roster = {
        "p1": make_partner("p1", latency_ms="100"),
        "p2": make_partner("p2", latency_ms="4000", bid_cpm="0.9"),
    }
    scenario = make_scenario(partners=("p1", "p2"))
    return emit_trace(run_scenario(scenario, roster, master_seed=1), scenario, roster)


def _bid(partner, cpm, latency, late):
    return {"partner": partner, "cpm": cpm, "latency_ms": latency, "late": late, "channel": "client"}


# The row for late_bid_trace(), whatever the order of its records in the file.
LATE_BID_ROW = {
    "site_id": "site-a",
    "round_index": 0,
    "is_hb": True,
    "facet": "client_side",
    "partners": ["p1", "p2"],
    "auctions": [
        {
            "slot_id": "slot0",
            "size": "300x250",
            "bids": [_bid("p1", "0.5", "100.000", False), _bid("p2", "0.9", "4000.000", True)],
            "winner_partner": "p1",
            "winner_cpm": "0.5",
        }
    ],
    "late_bid_count": 1,
    "hb_latency_ms": "3150.000",
    "warnings": 0,
}


def _ad_server(event):
    return event.kind != KIND_DOM and "bidder" not in event.params


def _move_before(events, picked, anchor):
    """The events that satisfy picked, moved in front of the first anchor event."""
    moving = [e for e in events if picked(e)]
    rest = [e for e in events if not picked(e)]
    at = next(i for i, e in enumerate(rest) if anchor(e))
    return rest[:at] + moving + rest[at:]


def _row(events):
    return result_row(extract_auction_metadata(Trace("site-a", 0, tuple(events)), DIRECTORY))


class TestUnsortedTraces:
    """Rows for traces whose file order is not time order, pinned to the
    output of the multi-pass detector this one replaced."""

    def test_sorted_trace(self):
        assert _row(late_bid_trace().events) == LATE_BID_ROW

    def test_late_bid_response_before_auction_end_in_file(self):
        events = _move_before(
            late_bid_trace().events,
            lambda e: e.ts_ms == D(4000),
            lambda e: e.event_name == "auctionEnd",
        )
        assert _row(events) == LATE_BID_ROW

    def test_first_auction_end_in_file_decides_lateness(self):
        # An earlier-stamped second auctionEnd would make p1's bid late too.
        extra = TraceEvent(D("50.000"), KIND_DOM, "auctionEnd", auction_id="site-a:r0")
        assert _row(late_bid_trace().events + (extra,)) == LATE_BID_ROW

    def test_ad_server_response_before_its_request_in_file(self):
        events = _move_before(
            late_bid_trace().events,
            lambda e: e.kind == KIND_RESPONSE and _ad_server(e),
            lambda e: e.kind == KIND_REQUEST and _ad_server(e),
        )
        assert _row(events) == LATE_BID_ROW

    def test_slot_size_noted_by_render_event_only(self):
        # slot0's render record comes first in the file, yet its bidResponse
        # size is the one kept; slot9 is sized by its render record alone.
        first = TraceEvent(D(0), KIND_DOM, "slotRenderEnded", params={"hb_size": "1x1"}, slot_id="slot0")
        last = TraceEvent(D(3150), KIND_DOM, "adRenderFailed", params={"hb_size": "728x90"}, slot_id="slot9")
        expected = dict(LATE_BID_ROW)
        expected["auctions"] = LATE_BID_ROW["auctions"] + [
            {"slot_id": "slot9", "size": "728x90", "bids": [], "winner_partner": None, "winner_cpm": None}
        ]
        assert _row((first,) + late_bid_trace().events + (last,)) == expected


@pytest.mark.parametrize("price", ["NaN", "sNaN", "Infinity", "-Infinity", "1e30"])
def test_unusable_price_is_a_warning_not_a_bid(price):
    # Every priced record: p1 and p2's bidResponses, p1's bidWon, the ad
    # server's response naming p1.
    events = [
        replace(e, params=dict(e.params, hb_price=price)) if "hb_price" in e.params else e
        for e in late_bid_trace().events
    ]
    result = extract_auction_metadata(Trace("site-a", 0, tuple(events)), DIRECTORY)
    assert result.warnings == 4
    assert [(a.bids, a.winner_partner, a.winner_cpm) for a in result.auctions] == [((), None, None)]


class TestSidecarIsolation:
    def test_detector_never_opens_truth_files(self, tmp_path, client_fixture, monkeypatch):
        trace, _ = client_fixture
        opened = []
        real_open = builtins.open

        def spy_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        extract_auction_metadata(trace, DIRECTORY)
        assert opened == []

    def test_results_identical_with_and_without_sidecars(self, tmp_path, two_partner_roster):
        from hbarena.cli import main

        scenario_path = tmp_path / "scen.json"
        scenario_path.write_text(_SCENARIO_JSON)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert main(["detect", str(out), "--out", str(out / "r1.jsonl")]) == 0
        for sidecar in out.glob("*.truth.jsonl"):
            sidecar.unlink()
        assert main(["detect", str(out), "--out", str(out / "r2.jsonl")]) == 0
        assert (out / "r1.jsonl").read_bytes() == (out / "r2.jsonl").read_bytes()


_SCENARIO_JSON = """
{
  "master_seed": 11,
  "partners": [
    {"partner_id": "p1", "domains": ["p1.example.net"],
     "latency_model": {"kind": "fixed", "value_ms": "100"},
     "bid_model": {"kind": "fixed", "value_cpm": "0.5"}}
  ],
  "sites": [
    {"site_id": "s1", "rank": 1, "facet": "client_side",
     "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0.1"}],
     "partners": ["p1"],
     "ad_server_latency": {"kind": "fixed", "value_ms": "150"}}
  ]
}
"""
