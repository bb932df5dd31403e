"""Sampler determinism and the pinned RNG golden file."""

import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hbarena.domain import BidModel, ConfigurationError, LatencyModel
from hbarena.netsim import RngStream, sample_latency, sample_partner_bids

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rng_golden.json").read_text())


def test_rng_matches_golden_file():
    for case in GOLDEN["cases"]:
        stream = RngStream(case["master_seed"], case["site_id"], case["round_index"], case["purpose"])
        assert [stream.next_u64() for _ in range(4)] == case["raw_u64"]
        stream = RngStream(case["master_seed"], case["site_id"], case["round_index"], case["purpose"])
        assert [repr(stream.uniform()) for _ in range(4)] == case["uniforms"]
        stream = RngStream(case["master_seed"], case["site_id"], case["round_index"], case["purpose"])
        assert [repr(stream.normal()) for _ in range(2)] == case["normals"]
        stream = RngStream(case["master_seed"], case["site_id"], case["round_index"], case["purpose"])
        model = LatencyModel.lognormal(5.0, 0.5)
        assert [str(sample_latency(model, stream)) for _ in range(3)] == case[
            "lognormal_ms_mu5_sigma0.5"
        ]


def test_identical_keys_give_identical_sequences():
    a = RngStream(9, "s", 2, "x")
    b = RngStream(9, "s", 2, "x")
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_stream_independence_across_sites_and_rounds():
    other_before = [RngStream(9, "other", 0, "latency:p").uniform()]
    _ = [RngStream(9, "site", r, "latency:p").uniform() for r in range(5)]
    other_after = [RngStream(9, "other", 0, "latency:p").uniform()]
    assert other_before == other_after
    assert RngStream(9, "site", 0, "latency:p").uniform() != pytest.approx(
        RngStream(9, "site", 1, "latency:p").uniform()
    )


def test_sample_latency_fixed_and_empirical():
    stream = RngStream(1, "s", 0, "t")
    assert sample_latency(LatencyModel.fixed("100"), stream) == Decimal("100.000")
    assert sample_latency(LatencyModel.empirical(["250"]), stream) == Decimal("250.000")


def test_sample_latency_empirical_empty_is_config_error():
    with pytest.raises(ConfigurationError):
        sample_latency(LatencyModel(kind="empirical"), RngStream(1, "s", 0, "t"))


@pytest.mark.parametrize("sample", ["0", "-1.5"])
def test_sample_latency_empirical_non_positive_draw_is_config_error(sample):
    with pytest.raises(ConfigurationError):
        sample_latency(LatencyModel.empirical([sample]), RngStream(1, "s", 0, "t"))


@given(seed=st.integers(min_value=0, max_value=2**32), sigma=st.floats(min_value=0, max_value=3))
def test_sample_latency_always_positive_finite(seed, sigma):
    stream = RngStream(seed, "s", 0, "t")
    model = LatencyModel.lognormal(-5.0, sigma)
    for _ in range(5):
        value = sample_latency(model, stream)
        assert value > 0
        assert value.is_finite()


def test_sample_bid_response_probability_edges():
    stream = RngStream(1, "s", 0, "b")
    assert sample_partner_bids(BidModel.fixed("0.5"), stream, 1, 1) == [Decimal("0.5")]
    stream = RngStream(1, "s", 0, "b")
    assert sample_partner_bids(BidModel.fixed("0.5"), stream, 0, 1) is None
    stream = RngStream(1, "s", 0, "b")
    assert sample_partner_bids(BidModel.fixed("0.031"), stream, 1, 1) == [Decimal("0.031")]


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_sample_bid_non_negative(seed):
    stream = RngStream(seed, "s", 0, "b")
    values = sample_partner_bids(BidModel.lognormal(-8.0, 2.0), stream, 1, 1)
    assert values is not None and len(values) == 1 and values[0] >= 0


def test_sample_partner_bids_shape():
    bids = sample_partner_bids(BidModel.fixed("0.2"), RngStream(1, "s", 0, "b"), 1, 4)
    assert bids == [Decimal("0.2")] * 4
    assert sample_partner_bids(BidModel.fixed("0.2"), RngStream(1, "s", 0, "b"), 0, 4) is None
