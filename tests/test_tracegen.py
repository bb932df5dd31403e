"""Trace emission fixtures, serialization round-trips, facet fingerprints."""

import json
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import make_partner, make_scenario, make_slot
from hbarena.auction import run_scenario
from hbarena.domain import Facet, WrapperPolicy, builtin_directory, decimal_str, lookup_partner
from hbarena import domain
from hbarena.tracegen import (
    DOM_EVENT_NAMES,
    KIND_DOM,
    KIND_REQUEST,
    KIND_RESPONSE,
    TraceEvent,
    TraceParseError,
    emit_trace,
    parse_event,
    parse_trace_text,
    serialize_event,
    serialize_trace,
    truth_record,
    url_host,
)

D = Decimal


def dom_names(trace):
    return [e.event_name for e in trace.events if e.kind == KIND_DOM]


def hb_params_present(trace):
    keywords = ("bidder", "hb_partner", "hb_price", "hb_size")
    return any(
        k in keywords or k.startswith("hb_") for e in trace.events for k in e.params
    )


@pytest.fixture
def client_trace(two_partner_roster):
    scenario = make_scenario(partners=("p1", "p2"))
    outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
    return emit_trace(outcome, scenario, two_partner_roster), outcome


class TestClientTrace:
    def test_dom_sequence_brackets(self, client_trace):
        trace, _ = client_trace
        names = dom_names(trace)
        assert names[:4] == ["auctionInit", "requestBids", "bidRequested", "bidRequested"]
        assert names[-2:] == ["bidWon", "slotRenderEnded"]

    def test_taxonomy_only(self, client_trace):
        trace, _ = client_trace
        assert all(e.event_name in DOM_EVENT_NAMES for e in trace.events if e.kind == KIND_DOM)

    def test_event_count_matches_enumeration(self, client_trace):
        trace, outcome = client_trace
        expected = oracles.count_client_trace_events(
            n_partners=2, n_arrived_bids=2, n_slots=1, n_filled_slots=1, client_winner_slots=1
        )
        assert len(trace.events) == expected

    def test_bid_response_pairs_with_web_response(self, client_trace):
        trace, _ = client_trace
        responses = [
            e for e in trace.events if e.kind == KIND_RESPONSE and "bidder" in e.params
        ]
        for event in trace.events:
            if e_is_bid_response := (event.kind == KIND_DOM and event.event_name == "bidResponse"):
                twins = [
                    r
                    for r in responses
                    if r.ts_ms == event.ts_ms
                    and r.params.get("hb_price") == event.params.get("hb_price")
                    and r.params.get("bidder") == event.params.get("bidder")
                ]
                assert twins, f"no web_response twin for {event}"

    def test_hb_price_strings_match_outcome_cpms(self, client_trace):
        trace, outcome = client_trace
        prices = {
            e.params["bidder"]: e.params["hb_price"]
            for e in trace.events
            if e.kind == KIND_DOM and e.event_name == "bidResponse"
        }
        for slot in outcome.slots:
            for bid in slot.bids:
                assert prices[bid.partner_id] == decimal_str(bid.cpm)

    def test_ordering_auction_end_before_ad_server_request(self, client_trace):
        trace, _ = client_trace
        kinds = [
            (e.kind, e.event_name)
            for e in trace.events
            if (e.kind == KIND_DOM and e.event_name == "auctionEnd")
            or (e.kind == KIND_REQUEST and "hb_auction" in e.params)
        ]
        assert kinds == [(KIND_DOM, "auctionEnd"), (KIND_REQUEST, None)]

    def test_late_bids_appear_after_auction_end(self, two_partner_roster):
        scenario = make_scenario(partners=("p1", "p2"), policy=WrapperPolicy.IMMEDIATE)
        outcome = run_scenario(scenario, two_partner_roster, master_seed=1)
        trace = emit_trace(outcome, scenario, two_partner_roster)
        end_ts = next(
            e.ts_ms for e in trace.events if e.kind == KIND_DOM and e.event_name == "auctionEnd"
        )
        late_responses = [
            e for e in trace.events if e.kind == KIND_DOM and e.event_name == "bidResponse"
        ]
        assert late_responses and all(e.ts_ms > end_ts for e in late_responses)

    def test_no_partner_id_fields_serialized(self, client_trace):
        trace, _ = client_trace
        text = serialize_trace(trace)
        for line in text.splitlines():
            assert '"partner_id"' not in line
            assert '"facet"' not in line


class TestServerTrace:
    @pytest.fixture
    def server_trace(self):
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
        return emit_trace(outcome, scenario, roster)

    def test_no_bid_flow_dom_events(self, server_trace):
        names = dom_names(server_trace)
        assert "bidRequested" not in names
        assert "bidResponse" not in names
        assert "auctionInit" not in names

    def test_single_outbound_request(self, server_trace):
        outbound = [e for e in server_trace.events if e.kind == KIND_REQUEST]
        assert len(outbound) == 1
        assert url_host(outbound[0].url) == "adserve.example.org"
        # Host attribution drops userinfo, port, query and fragment; only
        # http(s) URLs have a host, and a malformed one has none.
        hosts = {
            "https://u@adnxs.com:443/x": "adnxs.com",
            "https://u:pw@ADNXS.com:8443": "adnxs.com",
            "https://adnxs.com?x=1": "adnxs.com",
            "https://adnxs.com#frag": "adnxs.com",
            "HTTP://Sub.Adnxs.COM/hb": "sub.adnxs.com",
            "https://[::1]:8080/x": "::1",
            "https://[adnxs.com/x": None,
            "ftp://adnxs.com/x": None,
            "https:///x": None,
            "adnxs.com/x": None,
            "": None,
        }
        for url, host in hosts.items():
            assert url_host(url) == host, url
        event = TraceEvent(D(0), KIND_REQUEST, url="https://u@adnxs.com:443/x", direction="outbound")
        assert lookup_partner(url_host(event.url), builtin_directory()) == "appnexus"

    def test_response_carries_winner_params(self, server_trace):
        responses = [e for e in server_trace.events if e.kind == KIND_RESPONSE]
        assert responses[0].params["hb_partner"] == "b2"
        assert responses[0].params["hb_price"] == "0.6"

    def test_unfilled_round_still_carries_hb_params(self):
        roster = {
            "b1": make_partner("b1", bid_cpm="0.01"),
            "adserve": make_partner("adserve", "adserve.example.org"),
        }
        scenario = make_scenario(
            facet=Facet.SERVER_SIDE, partners=("b1",), ad_server_partner_id="adserve"
        )
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        assert hb_params_present(trace)
        assert not any(e.kind == KIND_DOM for e in trace.events)


class TestHybridTrace:
    def test_server_winner_named_in_ad_server_response(self):
        roster = {
            "A": make_partner("A", bid_cpm="0.3"),
            "srv": make_partner("srv", "adserve.example.org", bid_cpm="0.5"),
        }
        scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        winner_params = [
            e.params for e in trace.events if e.kind == KIND_RESPONSE and "hb_partner" in e.params
        ]
        assert winner_params == [
            {"hb_auction": "site-a:r0", "hb_partner": "srv", "hb_price": "0.5", "hb_size": "300x250"}
        ]
        assert "bidWon" not in dom_names(trace)  # server winner: no wrapper bidWon

    def test_client_winner_gets_bid_won(self):
        roster = {
            "A": make_partner("A", bid_cpm="0.7"),
            "srv": make_partner("srv", "adserve.example.org", bid_cpm="0.5"),
        }
        scenario = make_scenario(facet=Facet.HYBRID, partners=("A",), ad_server_partner_id="srv")
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        assert "bidWon" in dom_names(trace)


class TestWaterfallTrace:
    def test_no_dom_events_and_no_hb_params(self):
        roster = {
            "A": make_partner("A", response_probability="0"),
            "B": make_partner("B", bid_cpm="0.3"),
        }
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        assert not any(e.kind == KIND_DOM for e in trace.events)
        assert not hb_params_present(trace)
        assert len([e for e in trace.events if e.kind == KIND_REQUEST]) == 2

    def test_sequential_tier_timing(self):
        roster = {
            "A": make_partner("A", latency_ms="150", response_probability="0"),
            "B": make_partner("B", latency_ms="180", bid_cpm="0.3"),
        }
        scenario = make_scenario(facet=Facet.WATERFALL_ONLY, partners=("A", "B"))
        outcome = run_scenario(scenario, roster, master_seed=1)
        trace = emit_trace(outcome, scenario, roster)
        times = [(e.kind, e.ts_ms) for e in trace.events]
        assert times == [
            (KIND_REQUEST, D(0)),
            (KIND_RESPONSE, D(150)),
            (KIND_REQUEST, D(150)),
            (KIND_RESPONSE, D(330)),
        ]


def test_no_ads_trace_is_empty():
    scenario = make_scenario(facet=Facet.NO_ADS, slots=[], partners=())
    trace = emit_trace(None, scenario, {})
    assert trace.events == ()
    assert serialize_trace(trace) == ""


class TestRoundTrip:
    def test_client_fixture_round_trip(self, client_trace):
        trace, _ = client_trace
        text = serialize_trace(trace)
        parsed = parse_trace_text(text, trace.site_id, trace.round_index)
        assert parsed == trace
        assert serialize_trace(parsed) == text

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        facet=st.sampled_from([Facet.CLIENT_SIDE, Facet.SERVER_SIDE, Facet.HYBRID, Facet.WATERFALL_ONLY]),
        n_partners=st.integers(min_value=1, max_value=4),
        n_slots=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(list(WrapperPolicy)),
        respond=st.decimals(min_value=0, max_value=1, places=2),
        render_fail=st.sampled_from(["0", "0.5", "1"]),
    )
    def test_round_trip_over_randomized_rounds(self, seed, facet, n_partners, n_slots, policy, respond,
                                               render_fail):
        roster = {
            f"p{i}": make_partner(
                f"p{i}", latency_ms=str(50 + 37 * i), bid_cpm=str(Decimal("0.05") * (i + 1)),
                response_probability=str(respond),
            )
            for i in range(n_partners)
        }
        roster["adserve"] = make_partner("adserve", "adserve.example.org")
        scenario = make_scenario(
            facet=facet,
            partners=tuple(f"p{i}" for i in range(n_partners)),
            slots=[make_slot(f"slot{i}") for i in range(n_slots)],
            policy=policy,
            ad_server_partner_id=(
                "adserve" if facet in (Facet.SERVER_SIDE, Facet.HYBRID) else None
            ),
            render_fail_probability=render_fail,
        )
        outcome = run_scenario(scenario, roster, seed)
        trace = emit_trace(outcome, scenario, roster)
        text = serialize_trace(trace)
        parsed = parse_trace_text(text, trace.site_id, trace.round_index)
        assert parsed == trace
        assert serialize_trace(parsed) == text
        assert [e.ts_ms for e in trace.events] == sorted(e.ts_ms for e in trace.events)


# Quotes, backslashes, control characters, non-ASCII text and lone surrogates,
# beside whatever else Hypothesis draws (surrogates included).
_awkward_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)
_optional_text = st.none() | _awkward_text


@settings(max_examples=200)
@given(
    ts=st.decimals(min_value=-10**9, max_value=10**9, allow_nan=False, allow_infinity=False, places=5),
    kind=_awkward_text,
    event_name=_optional_text,
    url=_optional_text,
    direction=_optional_text,
    params=st.dictionaries(_awkward_text, _awkward_text, max_size=4),
    auction_id=_optional_text,
    slot_id=_optional_text,
)
def test_serialize_event_equals_json_dumps(ts, kind, event_name, url, direction, params,
                                           auction_id, slot_id):
    event = TraceEvent(ts, kind, event_name, url, direction, params, auction_id, slot_id)
    assert serialize_event(event) == oracles.serialize_event_json(event)


class TestParseErrors:
    def test_invalid_json_names_line(self):
        text = '{"ts_ms":"0.000","kind":"dom_event","event_name":"auctionInit"}\n{broken\n'
        with pytest.raises(TraceParseError) as err:
            parse_trace_text(text, "s", 0)
        assert "line 2" in str(err.value)

    def test_unknown_dom_event_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_text('{"ts_ms":"0.000","kind":"dom_event","event_name":"nope"}\n', "s", 0)

    def test_unknown_key_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_text('{"ts_ms":"0.000","kind":"dom_event","event_name":"auctionInit","facet":"x"}\n', "s", 0)

    def test_bad_ts_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace_text('{"ts_ms":"abc","kind":"web_request","url":"https://x/","direction":"outbound"}\n', "s", 0)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param('{"ts_ms":"Infinity","kind":"dom_event","event_name":"auctionInit"}', id="ts-inf"),
            pytest.param('{"ts_ms":"NaN","kind":"dom_event","event_name":"auctionInit"}', id="ts-nan"),
            pytest.param('{"ts_ms":"sNaN","kind":"dom_event","event_name":"auctionInit"}', id="ts-snan"),
            pytest.param('{"ts_ms":"1e40","kind":"dom_event","event_name":"auctionInit"}', id="ts-1e40"),
            pytest.param('{"ts_ms":"-1e15","kind":"dom_event","event_name":"auctionInit"}', id="ts-range"),
            pytest.param('{"ts_ms":NaN,"kind":"dom_event","event_name":"auctionInit"}', id="ts-json-nan"),
            pytest.param('{"ts_ms":1e400,"kind":"dom_event","event_name":"auctionInit"}', id="ts-json-inf"),
            pytest.param('{"ts_ms":[],"kind":"dom_event","event_name":"auctionInit"}', id="ts-list"),
            pytest.param('{"ts_ms":true,"kind":"web_request","url":"https://a","direction":"outbound"}', id="ts-bool"),
            pytest.param('{"ts_ms":' + "9" * 5000 + "}", id="int-digits"),
            pytest.param("[" * 100000 + "]" * 100000, id="nesting"),
            pytest.param('{"ts_ms":"0","kind":"dom_event","event_name":"bidWon","slot_id":"\\ud800"}', id="surrogate"),
            pytest.param('{"ts_ms":"0","kind":["dom_event"]}', id="kind-list"),
            pytest.param('{"ts_ms":"0","kind":"dom_event","event_name":{"x":1}}', id="name-object"),
            pytest.param('{"ts_ms":"0","kind":"web_request","direction":["outbound"]}', id="direction-list"),
            pytest.param('{"ts_ms":"0","kind":"dom_event","event_name":"bidWon","direction":[[]]}', id="dom-direction-list"),
            pytest.param('{"ts_ms":"0","kind":"web_request","direction":"outbound","url":5}', id="url-number"),
            pytest.param('{"ts_ms":"0","kind":"dom_event","event_name":"bidWon","slot_id":["s"]}', id="slot-list"),
            pytest.param('{"ts_ms":"0","kind":"dom_event","event_name":"bidWon","auction_id":1}', id="auction-number"),
        ],
    )
    def test_hostile_record_is_a_parse_error(self, line):
        with pytest.raises(TraceParseError) as err:
            parse_trace_text('{"ts_ms":"0","kind":"dom_event","event_name":"auctionInit"}\n' + line + "\n", "s", 0)
        assert err.value.line_no == 2


def test_truth_record_shape(client_trace, two_partner_roster):
    _, outcome = client_trace
    scenario = make_scenario(partners=("p1", "p2"))
    record = truth_record(outcome, scenario, 0)
    assert record == {
        "site_id": "site-a",
        "round_index": 0,
        "facet": "client_side",
        "winner": {"slot0": {"partner": "p1", "cpm": "0.5"}},
        "late_bid_count": 0,
        "total_latency_ms": "350.000",
    }


def test_render_failure_emits_ad_render_failed():
    roster = {"p1": make_partner("p1")}
    scenario = make_scenario(partners=("p1",), render_fail_probability="1")
    outcome = run_scenario(scenario, roster, master_seed=1)
    trace = emit_trace(outcome, scenario, roster)
    names = dom_names(trace)
    assert "adRenderFailed" in names
    assert "slotRenderEnded" not in names
    assert not outcome.winner_notified


# Pieces of JSON and of near-JSON, joined at random into lines.
_JSON_TOKENS = (
    "{", "}", "[", "]", ":", ",", '"', "\\", '"a"', '"ts_ms"', '"0.000"', '"\\ud800"', '"\\u00e9"', '"\u00e9"',
    "1", "-0", "0.5", "1e400", "-1e-400", "9" * 5000, "NaN", "Infinity", "-Infinity", "true", "null",
    " ", "\t", "\n", "\ufeff", "\x00", "\u2028",
)
_TRACE_LINES = (
    '{"ts_ms":"0.000","kind":"dom_event","event_name":"auctionInit","auction_id":"s:r0"}',
    '{"ts_ms":"130.250","kind":"web_response","url":"https://ib.adnxs.com/hb/bid?auction=s:r0&bidder=appnexus",'
    '"direction":"inbound","params":{"bidder":"appnexus","hb_price":"0.412","hb_size":"300x250"},'
    '"auction_id":"s:r0","slot_id":"slot0"}',
)


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


_LINES = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_JSON_TOKENS), max_size=40).map("".join),
    st.tuples(st.sampled_from(("", " ", "\ufeff", "x", "{")), st.sampled_from(_TRACE_LINES),
              st.sampled_from(("", " ", "\t", ",", "}", "{}", '{"a":[1'))).map("".join),
    # Nested a little, and far past the recursion limit.
    st.integers(1, 64).map(_nested),
    st.integers(sys.getrecursionlimit() + 100, 3 * sys.getrecursionlimit()).map(_nested),
)


def test_joined_lines_that_are_valid_json_still_fail():
    # {"a":[1 and 2]},{"b":1} join into valid JSON; each line alone is not.
    with pytest.raises(TraceParseError) as err:
        parse_trace_text('{"a":[1\n2]},{"b":1}\n', "s", 0)
    assert err.value.line_no == 1 and "invalid JSON" in str(err.value)


# Whole lines, and pieces that only parse as JSON across a line break or next
# to the break value of json_text_lines.
_TEXT_LINES = st.one_of(
    st.sampled_from(_TRACE_LINES + ("{}",)),
    st.sampled_from(('{"a":[1', '2]}', '2]},{"b":1}', '{"a":1},{"b":2}', '"\\u0000"', '{"a":"\\u0000"}', "[]", "{}",
                     '{"a":1}]', '[{"a":1}', '{"a":1},"\\u0000",{"b":2}', '{"a":1},', ',{"a":1}', " ", "\r")),
    _LINES,
)


def _decoded_by_lines(text):
    return list(domain.json_lines(text.split("\n")))


def _decoded_as_text(text):
    return list(domain.json_text_lines(text))


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(_TEXT_LINES, max_size=6), end=st.sampled_from(("", "\n", "\n\n")))
# Each but the last is valid JSON when decoded as one array: two values on a
# line, a value across a break, and a break value on a line standing in for
# one inside a value.
@example(lines=['{"a":1},{"b":2}'], end="")
@example(lines=['{"a":[1', "2]}"], end="\n")
@example(lines=['{"a":[1', '2]},"\\u0000",{"b":2}'], end="\n")
@example(lines=['{"a":"\udcff"}'], end="\n")  # an undecodable byte, kept as a surrogate escape
def test_text_decode_equals_line_by_line_decode(lines, end):
    """The (line number, object) pairs, or the TraceParseError message, of json_lines."""
    text = "\n".join(lines) + end
    assert oracles.json_outcome(_decoded_as_text, text) == oracles.json_outcome(_decoded_by_lines, text)


def test_a_well_formed_trace_is_decoded_in_one_call(monkeypatch):
    def by_lines(lines):
        raise AssertionError("decoded line by line")

    monkeypatch.setattr(domain, "json_lines", by_lines)
    text = "\n".join(_TRACE_LINES) + "\n"
    assert [(n, obj) for n, obj in domain.json_text_lines(text)] == [
        (n, json.loads(line)) for n, line in enumerate(_TRACE_LINES, start=1)]


_TS_TEXTS = st.one_of(
    st.sampled_from(["0", "0.0005", "0.0015", "-0", "1e3", "999999999999999.9995", "1e15", "-1e15",
                     "NaN", "-Infinity", "sNaN", " 1", "1_000", "x", "", "0.000"]),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.text(alphabet="0123456789.-eE+ ", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(text=_TS_TEXTS, line_no=st.integers(1, 50))
def test_string_timestamp_parses_as_checked_once_or_twice(text, line_no):
    """A string ts_ms parses the same the first time and when seen again."""
    record = {"ts_ms": text, "kind": "dom_event", "event_name": "auctionInit"}
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(("ok", str(parse_event(dict(record), line_no).ts_ms)))
        except TraceParseError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1] == oracles.string_timestamp(text, line_no)


_URL_PIECES = st.sampled_from((
    "http", "https", "HTTPS", "ftp", "h", ":", "//", "/", "?", "#", "@", "[", "]", "::1", "u:p", ":443", ":x",
    "ads.example.com", "A.B", ".", " ", "\t", "\n", "\x00", "%", "\u00e9", "\uff21", "\u2100", "\uff03", "\uff1f",
    "auction=s:r0&bidder=a",
))


_URLS = st.one_of(
    st.text(),
    st.lists(_URL_PIECES, max_size=12).map("".join),
    st.tuples(
        st.sampled_from(("http://", "https://", "HTTPS://", "ftp://", "http:", " https://", "\thttp://")),
        st.sampled_from(("", "u@", "u:p@", "@", "a?b@", "a#b@", "a/b@")),
        st.sampled_from(("ads.example.com", "A.B", "[::1]", "[::1", "::1]", "\u00e9.example", "x\u2100y", "")),
        st.sampled_from(("", ":443", ":x", ":")),
        st.sampled_from(("", "/", "/hb/bid", "/a@b", "?q@r", "#f@g")),
    ).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(url=_URLS, tail=st.sampled_from(("", "?q=1", "#f", "?a=b#c", "?other", "?u@h")))
def test_url_host_equals_uncached_urlsplit(url, tail):
    # The tail gives URLs that share a host-cache key but not their text.
    for text in (url, url + tail):
        assert url_host(text) == oracles.url_host(text), text
