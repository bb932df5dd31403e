"""Vocabulary types: directory lookup, scenario validation, quantization."""

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from conftest import make_partner, make_scenario, make_slot
from hbarena.domain import (
    BidModel,
    ConfigurationError,
    Facet,
    LatencyModel,
    PartnerDirectory,
    builtin_directory,
    decimal_str,
    lookup_partner,
    quantize_cpm,
    quantize_ms,
    validate_scenario,
)
from hbarena.netsim import RngStream, sample_latency, sample_partner_bids

DIR = PartnerDirectory.from_mapping({"adnxs.com": "appnexus", "ib.adnxs.com": "appnexus-ib"})


def test_lookup_exact_match():
    assert lookup_partner("adnxs.com", DIR) == "appnexus"


def test_lookup_subdomain_matches_on_label_boundary():
    assert lookup_partner("sub.adnxs.com", DIR) == "appnexus"
    assert lookup_partner("a.b.adnxs.com", DIR) == "appnexus"


def test_lookup_rejects_partial_label():
    assert lookup_partner("notadnxs.com", DIR) is None
    assert lookup_partner("example.com", DIR) is None


def test_lookup_longest_suffix_wins():
    assert lookup_partner("x.ib.adnxs.com", DIR) == "appnexus-ib"
    assert lookup_partner("ib.adnxs.com", DIR) == "appnexus-ib"


def test_lookup_case_and_trailing_dot_insensitive():
    assert lookup_partner("Sub.ADNXS.com.", DIR) == "appnexus"


_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@given(prefix=_label, n_labels=st.integers(min_value=1, max_value=3))
def test_lookup_prefixing_registered_suffix_is_stable(prefix, n_labels):
    directory = PartnerDirectory.from_mapping({"adnxs.com": "appnexus"})
    host = ".".join([prefix] * n_labels) + ".adnxs.com"
    assert lookup_partner(host, directory) == lookup_partner("adnxs.com", directory)


@given(host=st.lists(_label, min_size=1, max_size=4).map(".".join))
def test_lookup_total_and_deterministic(host):
    assert lookup_partner(host, DIR) == lookup_partner(host, DIR)


def test_builtin_directory_covers_major_partners():
    directory = builtin_directory()
    assert lookup_partner("securepubads.doubleclick.net", directory) == "dfp"
    assert lookup_partner("ib.adnxs.com", directory) == "appnexus"
    assert lookup_partner("static.criteo.net", directory) == "criteo"
    assert len(set(directory.entries.values())) == 11


def test_validate_empty_slots_is_violation():
    report = validate_scenario(make_scenario(slots=[], partners=("p1",)))
    assert any("slots empty" in v for v in report.violations)


def test_validate_minimal_scenario_passes():
    report = validate_scenario(make_scenario(partners=("p1",)))
    assert report.violations == ()
    assert report.warnings == ()


def test_validate_21_slots_warns_but_passes():
    slots = [make_slot(f"slot{i}") for i in range(21)]
    report = validate_scenario(make_scenario(slots=slots, partners=("p1",)))
    assert report.violations == ()
    assert len(report.warnings) == 1


def test_validate_server_side_needs_ad_server_entity():
    report = validate_scenario(make_scenario(facet=Facet.SERVER_SIDE, partners=("p1",)))
    assert any("ad_server_partner_id" in v for v in report.violations)


def test_validate_catches_bad_slot_geometry_and_floor():
    bad = make_scenario(slots=[make_slot(width=0), make_slot("slot1", floor="-1")], partners=("p1",))
    report = validate_scenario(bad)
    assert any("width" in v for v in report.violations)
    assert any("floor_price" in v for v in report.violations)


def test_validate_client_side_requires_partners():
    report = validate_scenario(make_scenario(partners=()))
    assert any("non-empty partner list" in v for v in report.violations)


@given(
    n_slots=st.integers(min_value=1, max_value=6),
    n_partners=st.integers(min_value=1, max_value=6),
    timeout=st.integers(min_value=1, max_value=10_000),
)
def test_validation_clean_scenarios_hold_invariants(n_slots, n_partners, timeout):
    scenario = make_scenario(
        slots=[make_slot(f"slot{i}") for i in range(n_slots)],
        partners=tuple(f"p{i}" for i in range(n_partners)),
        timeout_ms=timeout,
    )
    report = validate_scenario(scenario)
    assert report.ok
    assert all(s.width > 0 and s.height > 0 and s.floor_price >= 0 for s in scenario.slots)
    assert scenario.timeout_ms > 0


def test_partner_violations():
    bad = make_partner("p1", response_probability="1.5")
    assert any("response_probability" in v for v in bad.violations())
    no_domains = make_partner("p2")
    object.__setattr__(no_domains, "domains", ())
    assert any("domains" in v for v in no_domains.violations())


def test_latency_model_json_round_trip():
    # BidModel shares the schema under its own keys.
    for cls, fixed_key, samples_key, value, samples in (
        (LatencyModel, "value_ms", "samples_ms", "100", [Decimal("250"), Decimal("41.5")]),
        (BidModel, "value_cpm", "samples_cpm", "0.35", [Decimal("1.25"), Decimal("0")]),
    ):
        fixed = cls.fixed(value)
        assert fixed.to_json() == {"kind": "fixed", fixed_key: value}
        empirical = cls.empirical(samples)
        assert list(empirical.to_json()) == ["kind", samples_key]
        for model in (fixed, cls.lognormal(5.0, 0.5), empirical):
            assert cls.from_json(model.to_json()) == model


def _draw(model):
    """One draw through the model's public sampler."""
    stream = RngStream(1, "s", 0, "t")
    if isinstance(model, LatencyModel):
        return sample_latency(model, stream)
    return sample_partner_bids(model, stream, 1, 1)


# Per case: the model, its violations(where) text, and the text of the
# ConfigurationError its sampler raises (None: the draw succeeds).
_MODEL_CONTRACT = {
    LatencyModel: {
        "fixed-out-of-range": (
            LatencyModel.fixed("0"),
            "w: fixed latency must be strictly positive",
            "fixed latency must be strictly positive",
        ),
        "lognormal-negative-sigma": (
            LatencyModel.lognormal(4.0, -0.5),
            "w: lognormal latency needs mu and sigma >= 0",
            None,
        ),
        "empirical-no-samples": (
            LatencyModel.empirical([]),
            "w: empirical latency needs at least one sample",
            "empirical latency model has no samples",
        ),
        "empirical-out-of-range": (
            LatencyModel.empirical(["0"]),
            "w: empirical latency samples must be strictly positive",
            "empirical latency samples must be strictly positive",
        ),
        "unknown-kind": (
            LatencyModel(kind="gaussian"),
            "w: unknown latency model kind 'gaussian'",
            "unknown latency model kind 'gaussian'",
        ),
    },
    BidModel: {
        "fixed-out-of-range": (
            BidModel.fixed("-0.1"),
            "w: fixed bid must be non-negative",
            "fixed bid must be non-negative",
        ),
        "lognormal-negative-sigma": (
            BidModel.lognormal(-2.0, -0.5),
            "w: lognormal bid needs mu and sigma >= 0",
            None,
        ),
        "empirical-no-samples": (
            BidModel.empirical([]),
            "w: empirical bid needs at least one sample",
            "empirical bid model has no samples",
        ),
        "empirical-out-of-range": (
            BidModel.empirical(["-0.5"]),
            "w: empirical bid samples must be non-negative",
            "empirical bid samples must be non-negative",
        ),
        "unknown-kind": (
            BidModel(kind="gaussian"),
            "w: unknown bid model kind 'gaussian'",
            "unknown bid model kind 'gaussian'",
        ),
    },
}


@pytest.mark.parametrize(
    "cls, case",
    [
        pytest.param(cls, case, id=f"{cls.__name__}-{case}")
        for cls, cases in _MODEL_CONTRACT.items()
        for case in cases
    ],
)
def test_model_violations_and_sampler_errors(cls, case):
    model, violation, sampler_error = _MODEL_CONTRACT[cls][case]
    assert model.violations("w") == [violation]
    if sampler_error is None:
        _draw(model)
    else:
        with pytest.raises(ConfigurationError) as err:
            _draw(model)
        assert str(err.value) == sampler_error


def test_quantization_policy():
    assert quantize_ms(Decimal("1.0005")) == Decimal("1.000")  # half-even
    assert quantize_ms(Decimal("1.0015")) == Decimal("1.002")
    assert quantize_cpm(Decimal("0.0000005")) == Decimal("0.000000")
    assert decimal_str(Decimal("0.500000")) == "0.5"
    assert decimal_str(Decimal("350.000")) == "350"
    assert decimal_str(Decimal("0.031000")) == "0.031"
