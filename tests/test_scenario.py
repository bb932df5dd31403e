"""Scenario file parsing and the quota-based corpus generator."""

import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_partner
from golden.make_expand_golden import canonical_json, cases, digest
from hbarena.domain import ConfigurationError, Facet, lookup_partner
from hbarena.scenario import ScenarioFile, expand_sites, load_scenario_file, validate_scenario_file

EXPAND_GOLDEN = json.loads((Path(__file__).parent / "golden" / "expand_golden.json").read_text())["cases"]

PARTNERS = [
    {
        "partner_id": pid,
        "domains": [f"{pid}.example.net"],
        "latency_model": {"kind": "fixed", "value_ms": "100"},
        "bid_model": {"kind": "fixed", "value_cpm": "0.5"},
    }
    for pid in ("alpha", "beta", "gamma", "delta")
]


def write_scenario(tmp_path, payload, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def generator_payload(**overrides):
    generator = {
        "num_sites": 100,
        "facet_weights": {"server_side": 48, "hybrid": 34.7, "client_side": 17.3},
        "ad_server_partner": "delta",
    }
    generator.update(overrides)
    return {"master_seed": 5, "partners": PARTNERS, "generator": generator}


def test_explicit_site_parsing(tmp_path):
    payload = {
        "master_seed": 1,
        "partners": PARTNERS,
        "sites": [
            {
                "site_id": "s1",
                "rank": 3,
                "facet": "client_side",
                "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0.1"}],
                "partners": ["alpha"],
                "ad_server_latency": {"kind": "fixed", "value_ms": "80"},
            }
        ],
    }
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    sites = expand_sites(sf, 1)
    assert sites[0].facet is Facet.CLIENT_SIDE
    assert sites[0].slots[0].floor_price == Decimal("0.1")
    assert validate_scenario_file(sf, sites).ok


def test_missing_sites_and_generator_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_scenario_file(write_scenario(tmp_path, {"partners": PARTNERS}))


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigurationError):
        load_scenario_file(path)


def test_generator_quota_counts_are_exact(tmp_path):
    payload = generator_payload(num_sites=5000)
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    sites = expand_sites(sf, 5)
    counts = {}
    for site in sites:
        counts[site.facet.value] = counts.get(site.facet.value, 0) + 1
    assert counts == {"server_side": 2400, "hybrid": 1735, "client_side": 865}
    assert validate_scenario_file(sf, sites).ok


def test_generator_is_deterministic_per_seed(tmp_path):
    sf = load_scenario_file(write_scenario(tmp_path, generator_payload()))
    assert expand_sites(sf, 5) == expand_sites(sf, 5)
    assert expand_sites(sf, 5) != expand_sites(sf, 6)


def test_generator_ranks_are_sequential(tmp_path):
    sf = load_scenario_file(write_scenario(tmp_path, generator_payload(rank_start=100)))
    sites = expand_sites(sf, 5)
    assert [s.rank for s in sites] == list(range(100, 200))


def test_roster_order_pool_takes_prefix(tmp_path):
    payload = generator_payload(
        facet_weights={"client_side": 1},
        roster_order="pool",
        partner_pool=["alpha", "beta", "gamma"],
        partner_count_weights={"2": 1},
    )
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    sites = expand_sites(sf, 5)
    assert all(s.partners == ("alpha", "beta") for s in sites)


def test_hybrid_sites_exclude_entity_from_roster(tmp_path):
    sf = load_scenario_file(write_scenario(tmp_path, generator_payload()))
    sites = expand_sites(sf, 5)
    for site in sites:
        if site.facet is Facet.HYBRID:
            assert site.ad_server_partner_id == "delta"
            assert "delta" not in site.partners


def test_generator_requires_entity_for_server_facets(tmp_path):
    payload = generator_payload()
    del payload["generator"]["ad_server_partner"]
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    with pytest.raises(ConfigurationError):
        expand_sites(sf, 5)


def test_unknown_partner_reference_is_violation(tmp_path):
    payload = {
        "master_seed": 1,
        "partners": PARTNERS,
        "sites": [
            {
                "site_id": "s1",
                "facet": "client_side",
                "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0"}],
                "partners": ["ghost"],
                "ad_server_latency": {"kind": "fixed", "value_ms": "80"},
            }
        ],
    }
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    sites = expand_sites(sf, 1)
    report = validate_scenario_file(sf, sites)
    assert any("unknown partner 'ghost'" in v for v in report.violations)


def explicit_site(site_id="s1", **overrides):
    site = {
        "site_id": site_id,
        "facet": "client_side",
        "slots": [{"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0"}],
        "partners": ["alpha"],
        "ad_server_latency": {"kind": "fixed", "value_ms": "80"},
    }
    site.update(overrides)
    return site


def file_violations(tmp_path, payload):
    sf = load_scenario_file(write_scenario(tmp_path, payload))
    return validate_scenario_file(sf, expand_sites(sf, 1)).violations


def test_duplicate_explicit_site_id_is_violation(tmp_path):
    payload = {"master_seed": 1, "partners": PARTNERS, "sites": [explicit_site(), explicit_site()]}
    assert file_violations(tmp_path, payload) == ("duplicate site_id 's1'",)


def test_duplicate_slot_id_is_violation(tmp_path):
    slot = {"slot_id": "slot0", "width": 300, "height": 250, "floor_price": "0"}
    payload = {"master_seed": 1, "partners": PARTNERS, "sites": [explicit_site(slots=[slot, slot])]}
    assert file_violations(tmp_path, payload) == ("site 's1' slot 'slot0': duplicate slot_id",)


def test_duplicate_roster_partner_is_violation(tmp_path):
    payload = {"master_seed": 1, "partners": PARTNERS, "sites": [explicit_site(partners=["alpha", "alpha"])]}
    assert file_violations(tmp_path, payload) == ("site 's1': duplicate partner 'alpha' in roster",)


def test_explicit_site_colliding_with_generated_site_is_one_violation(tmp_path):
    payload = generator_payload(num_sites=10)
    payload["sites"] = [explicit_site("site00003")]
    assert file_violations(tmp_path, payload) == ("duplicate site_id 'site00003'",)


def test_directory_covers_all_partner_domains(tmp_path):
    sf = load_scenario_file(write_scenario(tmp_path, generator_payload()))
    directory = sf.directory()
    assert lookup_partner("alpha.example.net", directory) == "alpha"
    assert lookup_partner("cdn.delta.example.net", directory) == "delta"


def test_expansion_matches_golden_digests(tmp_path):
    """Every field of every site of the canned scenarios at their own seed and
    of the benchmark workloads at seed 4242, pinned by digest."""
    seen = {}
    for name, sf, seed in cases(tmp_path):
        sites = expand_sites(sf, seed)
        seen[name] = {"seed": seed, "sites": len(sites), "digest": digest(sites)}
    assert seen == EXPAND_GOLDEN


# Weights as a scenario file may give them: integers, decimals, strings of
# tiny and huge magnitudes (1E-400 is 0.0 as a float, 1E+400 is inf) and zeros,
# which the generator drops.
WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.decimals(min_value=0, max_value=1000, places=3),
    st.sampled_from(["0", "1E-30", "1E-400", "0.000001", "1E+400"]),
)


def weight_map(keys):
    return st.dictionaries(st.sampled_from(keys), WEIGHTS, min_size=1).filter(
        lambda m: any(Decimal(str(w)) > 0 for w in m.values())
    )


@st.composite
def generator_blocks(draw):
    n_partners = draw(st.integers(min_value=1, max_value=12))
    partners = {pid: make_partner(pid) for pid in [f"p{i}" for i in range(n_partners)] + ["entity"]}
    gen = {
        "num_sites": draw(st.integers(min_value=1, max_value=40)),
        "facet_weights": draw(weight_map([f.value for f in Facet])),
        "ad_server_partner": "entity",
        "roster_order": draw(st.sampled_from(["shuffle", "pool"])),
        "partner_count_weights": draw(weight_map([str(k) for k in range(1, 15)])),
        # Sometimes a slot count key below 1, which the generator rejects, or
        # one above 20, which gives a warning.
        "slot_count_weights": draw(weight_map([str(k) for k in range(1, 9)]
                                              + draw(st.sampled_from([[], [], ["0", "-2"], ["21", "25"]])))),
        "slot_sizes": draw(weight_map(["300x250", "728x90", "300x600", "1x1", "320x50"])),
        "wrapper_policy_weights": draw(weight_map(["wait_all", "wait_timeout", "immediate"])),
        "waterfall_tiers": draw(st.integers(min_value=1, max_value=14)),
        "server_backend_count": draw(st.integers(min_value=1, max_value=14)),
        "floor_price": draw(st.sampled_from(["0", "0.01", "0.010", "2.5"])),
        "render_fail_probability": draw(st.sampled_from(["0", "0.05"])),
        "rank_start": draw(st.integers(min_value=1, max_value=10**6)),
    }
    if draw(st.booleans()):
        pool = [pid for pid in partners if pid != "entity"]
        pool = draw(st.permutations(pool))[: draw(st.integers(min_value=1, max_value=len(pool)))]
        if draw(st.integers(min_value=0, max_value=4)) == 0:  # sometimes a partner twice
            pool.insert(draw(st.integers(min_value=0, max_value=len(pool))), draw(st.sampled_from(pool)))
        gen["partner_pool"] = pool
    return partners, gen


def generator_file(partners, gen):
    return ScenarioFile(master_seed=None, rounds_per_site=1, output_dir=None, partners=partners,
                        sites=(), generator=gen)


@settings(max_examples=80, deadline=None)
@given(block=generator_blocks(), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_expansion_equals_generator_oracle(block, seed):
    """The generator's sites are the oracle's, or, for a slot count key below
    1 or a pool that lists a partner twice, one error naming the field."""
    partners, gen = block
    sf = generator_file(partners, gen)
    pool = gen.get("partner_pool", [])
    if any(int(key) < 1 and Decimal(str(w)) > 0 for key, w in gen["slot_count_weights"].items()):
        field = "slot_count_weights"
    elif len(set(pool)) < len(pool):
        field = "partner_pool"
    else:
        assert canonical_json(expand_sites(sf, seed)) == canonical_json(oracles.generate_sites(partners, gen, seed))
        return
    with pytest.raises(ConfigurationError, match=f"generator {field}"):
        expand_sites(sf, seed)


@settings(max_examples=80, deadline=None)
@given(block=generator_blocks(), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_generator_checks_cover_the_per_site_checks(block, seed):
    """A generator block either raises or gives sites that pass every per-site
    check; it warns once about oversized sites exactly when some site would."""
    partners, gen = block
    sf = generator_file(partners, gen)
    try:
        sites = expand_sites(sf, seed)
    except ConfigurationError:
        return
    full = validate_scenario_file(sf._replace(sites=sites, generator=None), sites)
    assert full.violations == ()
    report = validate_scenario_file(sf, sites)
    assert report.violations == ()
    assert len(report.warnings) == (1 if full.warnings else 0)
    assert all("generator slot_count_weights" in w for w in report.warnings)
