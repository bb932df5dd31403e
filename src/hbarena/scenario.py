"""Scenario file loading and the config-driven corpus generator.

A scenario file is JSON with a partner roster plus either an explicit site
list, a generator block, or both.  The generator assigns facets by exact
largest-remainder quotas (a 48/34.7/17.3 weight split of 5000 sites yields
exactly 2400/1735/865) and then shuffles the assignment order with a seeded
stream, so a corpus is a pure function of (file, master seed).

Generator block fields, all optional unless noted:
  num_sites (required), site_prefix, rank_start, facet_weights,
  partner_pool, roster_order ("shuffle" or "pool"), partner_count_weights,
  slot_count_weights, slot_sizes, floor_price, wrapper_policy_weights,
  timeout_ms, ad_server_partner, ad_server_latency, waterfall_tiers,
  server_backend_count, render_fail_probability

A field of the wrong type or out of range is a ConfigurationError naming it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from itertools import accumulate

from .domain import (
    AdSlotSpec,
    BidModel,
    ConfigurationError,
    DemandPartnerSpec,
    Facet,
    LatencyModel,
    PartnerDirectory,
    ValidationReport,
    WebsiteScenario,
    WrapperPolicy,
    _host_suffix,
    _ID_RE,
    check_scenario,
    finite_decimal,
    read_json_file,
)
from .netsim import RngStream

_GENERATOR_DEFAULTS = {
    "site_prefix": "site",
    "rank_start": 1,
    "facet_weights": {"server_side": Decimal(48), "hybrid": Decimal("34.7"), "client_side": Decimal("17.3")},
    "roster_order": "shuffle",
    "partner_count_weights": {"1": Decimal(52), "2": Decimal(18), "3": Decimal(12), "5": Decimal(10), "10": Decimal(8)},
    "slot_count_weights": {"1": Decimal(25), "2": Decimal(25), "3": Decimal(20), "4": Decimal(15), "5": Decimal(10), "6": Decimal(5)},
    "slot_sizes": {"300x250": Decimal(45), "728x90": Decimal(25), "300x600": Decimal(15), "160x600": Decimal(10), "320x50": Decimal(5)},
    "floor_price": Decimal("0.01"),
    "wrapper_policy_weights": {"wait_timeout": Decimal(1)},
    "timeout_ms": 3000,
    "waterfall_tiers": 2,
    "server_backend_count": 3,
    "render_fail_probability": Decimal(0),
}


@dataclass(frozen=True)
class ScenarioFile:
    master_seed: int | None
    rounds_per_site: int
    output_dir: str | None
    partners: dict[str, DemandPartnerSpec]
    sites: tuple[WebsiteScenario, ...]
    generator: dict | None

    def directory(self) -> PartnerDirectory:
        entries = {}
        for spec in self.partners.values():
            for domain in spec.domains:
                entries[domain] = spec.partner_id
        return PartnerDirectory.from_mapping(entries)


def _number(value, where: str) -> Decimal:
    """A finite decimal: a JSON number or a string holding one."""
    try:
        return finite_decimal(value)
    except (InvalidOperation, ValueError):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}") from None


def _integer(value, where: str) -> int:
    """An integer: a JSON integer, an integral JSON number, or a string holding one."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, Decimal) and value.is_finite() and value == value.to_integral_value():
        return int(value)
    raise ConfigurationError(f"{where} must be an integer, got {value!r}")


def _typed(value, kind, where: str, noun: str):
    if not isinstance(value, kind):
        raise ConfigurationError(f"{where} must be {noun}, got {value!r}")
    return value


def _strings(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def _parse_partner(obj) -> DemandPartnerSpec:
    obj = _typed(obj, dict, "partner entry", "a JSON object")
    where = f"partner {obj.get('partner_id')!r}"
    try:
        return DemandPartnerSpec(
            partner_id=_typed(obj["partner_id"], str, "partner_id", "a string"),
            domains=_strings(obj["domains"], f"{where} domains"),
            latency_model=LatencyModel.from_json(obj["latency_model"], f"{where} latency_model"),
            bid_model=BidModel.from_json(obj["bid_model"], f"{where} bid_model"),
            response_probability=_number(obj.get("response_probability", 1), f"{where} response_probability"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"partner entry missing field {exc}") from exc


def _parse_slot(obj, site_id: str) -> AdSlotSpec:
    where = f"site {site_id!r} slot"
    obj = _typed(obj, dict, where, "a JSON object")
    try:
        return AdSlotSpec(
            slot_id=_typed(obj["slot_id"], str, f"{where} slot_id", "a string"),
            width=_integer(obj["width"], f"{where} width"),
            height=_integer(obj["height"], f"{where} height"),
            floor_price=_number(obj["floor_price"], f"{where} floor_price"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"site {site_id!r}: slot missing field {exc}") from exc


def _parse_site(obj) -> WebsiteScenario:
    obj = _typed(obj, dict, "site entry", "a JSON object")
    site_id = obj.get("site_id", "<missing>")
    where = f"site {site_id!r}"
    try:
        facet = Facet(obj["facet"])
        policy = WrapperPolicy(obj.get("wrapper_policy", "wait_timeout"))
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad facet or wrapper_policy: {exc}") from exc
    try:
        return WebsiteScenario(
            site_id=_typed(obj["site_id"], str, "site_id", "a string"),
            rank=_integer(obj.get("rank", 1), f"{where} rank"),
            facet=facet,
            slots=tuple(_parse_slot(s, site_id)
                        for s in _typed(obj.get("slots", []), list, f"{where} slots", "a list")),
            partners=_strings(obj.get("partners", []), f"{where} partners"),
            wrapper_policy=policy,
            ad_server_latency=LatencyModel.from_json(obj["ad_server_latency"], f"{where} ad_server_latency"),
            timeout_ms=_integer(obj.get("timeout_ms", 3000), f"{where} timeout_ms"),
            ad_server_partner_id=_typed(obj.get("ad_server_partner_id"), (str, type(None)),
                                        f"{where} ad_server_partner_id", "a string"),
            render_fail_probability=_number(obj.get("render_fail_probability", 0),
                                            f"{where} render_fail_probability"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing field {exc}") from exc


def load_scenario_file(path) -> ScenarioFile:
    """Parse and structurally check a scenario file; raises ConfigurationError."""
    data = read_json_file(path, "scenario file")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: scenario file must be a JSON object")

    partners: dict[str, DemandPartnerSpec] = {}
    for entry in _typed(data.get("partners", []), list, "partners", "a list"):
        spec = _parse_partner(entry)
        if spec.partner_id in partners:
            raise ConfigurationError(f"duplicate partner {spec.partner_id!r}")
        partners[spec.partner_id] = spec

    sites = tuple(_parse_site(entry) for entry in _typed(data.get("sites", []), list, "sites", "a list"))
    generator = data.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise ConfigurationError("generator block must be a JSON object")
    if not sites and generator is None:
        raise ConfigurationError("scenario file needs a sites list or a generator block")

    master_seed = data.get("master_seed")
    if master_seed is not None:
        master_seed = _integer(master_seed, "master_seed")
    return ScenarioFile(
        master_seed=master_seed,
        rounds_per_site=_integer(data.get("rounds_per_site", 1), "rounds_per_site"),
        output_dir=data.get("output_dir"),
        partners=partners,
        sites=sites,
        generator=generator,
    )


def _weights(obj, where: str) -> list[tuple[str, Decimal]]:
    if not isinstance(obj, dict) or not obj:
        raise ConfigurationError(f"{where}: expected a non-empty weight map")
    out = []
    for key in sorted(obj):
        weight = _number(obj[key], f"{where} weight for {key!r}")
        if weight < 0:
            raise ConfigurationError(f"{where}: negative weight for {key!r}")
        if weight > 0:
            out.append((key, weight))
    if not out:
        raise ConfigurationError(f"{where}: all weights are zero")
    return out


def _quota_counts(weights: list[tuple[str, Decimal]], n: int) -> dict[str, int]:
    """Largest-remainder allocation of n items over weighted keys."""
    total = sum(w for _, w in weights)
    shares = [(key, Decimal(n) * w / total) for key, w in weights]
    counts = {key: int(share) for key, share in shares}
    remainder = n - sum(counts.values())
    by_fraction = sorted(shares, key=lambda kv: (kv[1] - int(kv[1]), kv[0]), reverse=True)
    for key, _ in by_fraction[:remainder]:
        counts[key] += 1
    return counts


def _member(enum, key: str, unknown: str):
    member = enum._value2member_map_.get(key)
    if member is None:
        raise ConfigurationError(f"{unknown} {key!r}")
    return member


def _table(weights: list[tuple[str, Decimal]], value) -> tuple[tuple, list[float], float]:
    """A weight map compiled for ``_pick``: ``value(key)`` of each key, the
    running float sums of the weights and the float of their exact total.

    The values end with the last one again: no running sum exceeds a draw of
    an infinite or NaN total, and such a draw takes the last key.
    """
    values = tuple(value(key) for key, _ in weights)
    thresholds = list(accumulate(float(w) for _, w in weights))
    return values + values[-1:], thresholds, float(sum(w for _, w in weights))


def _pick(table: tuple[tuple, list[float], float], u: float):
    """The value of the first key whose running weight exceeds u * total."""
    values, thresholds, total = table
    return values[bisect_right(thresholds, u * total)]


def _shuffle(stream: RngStream, items: list) -> list:
    out = list(items)
    uniform = stream.uniform
    for i in range(len(out) - 1, 0, -1):
        j = min(int(uniform() * (i + 1)), i)  # stream.choice_index(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def expand_sites(sf: ScenarioFile, master_seed: int) -> tuple[WebsiteScenario, ...]:
    """Explicit sites plus generator-produced sites for the given seed."""
    sites = list(sf.sites)
    if sf.generator is not None:
        sites.extend(_generate_sites(sf, sf.generator, master_seed))
    return tuple(sites)


def _generate_sites(sf: ScenarioFile, gen: dict, master_seed: int) -> list[WebsiteScenario]:
    # Fields every generated site inherits are checked here, once, rather
    # than by validation once per site.
    cfg = dict(_GENERATOR_DEFAULTS)
    cfg.update(gen)
    if "num_sites" not in cfg:
        raise ConfigurationError("generator block needs num_sites")
    num_sites = _integer(cfg["num_sites"], "generator num_sites")
    if num_sites <= 0:
        raise ConfigurationError("generator num_sites must be positive")

    def size(key):
        width, x, height = key.partition("x")
        if not x:
            raise ConfigurationError(f"generator slot_sizes: size {key!r} is not WIDTHxHEIGHT")
        wh = (_integer(width, f"generator slot_sizes {key!r} width"),
              _integer(height, f"generator slot_sizes {key!r} height"))
        if min(wh) <= 0:
            raise ConfigurationError(f"generator slot_sizes: size {key!r} needs a positive width and height")
        return wh

    facet_weights = _weights(cfg["facet_weights"], "generator facet_weights")
    facets = [_member(Facet, key, "generator facet_weights: unknown facet") for key, _ in facet_weights]
    policies = _table(_weights(cfg["wrapper_policy_weights"], "generator wrapper_policy_weights"),
                      lambda key: _member(WrapperPolicy, key, "generator wrapper_policy_weights: unknown policy"))
    slot_counts = _table(_weights(cfg["slot_count_weights"], "generator slot_count_weights"),
                         lambda key: _integer(key, "generator slot_count_weights key"))
    slot_sizes = _table(_weights(cfg["slot_sizes"], "generator slot_sizes"), size)

    ad_server = _typed(cfg.get("ad_server_partner"), (str, type(None)), "generator ad_server_partner", "a string")
    if not ad_server and any(f in (Facet.SERVER_SIDE, Facet.HYBRID) for f in facets):
        raise ConfigurationError("generator needs ad_server_partner for server_side/hybrid sites")
    if ad_server and ad_server not in sf.partners:
        raise ConfigurationError(f"generator ad_server_partner {ad_server!r} is not a defined partner")

    pool = _strings(cfg.get("partner_pool") or [pid for pid in sf.partners if pid != ad_server],
                    "generator partner_pool")
    for pid in pool:
        if pid not in sf.partners:
            raise ConfigurationError(f"generator partner_pool references undefined partner {pid!r}")
    if not pool and any(f is not Facet.NO_ADS for f in facets):
        raise ConfigurationError("generator partner pool is empty")
    if ad_server in pool and Facet.HYBRID in facets:
        raise ConfigurationError(f"generator partner_pool holds ad_server_partner {ad_server!r}, "
                                 "which hybrid sites must not also have as a client bidder")

    def roster_size(value, where):
        """A roster length of at least 1, cut to the pool."""
        n = _integer(value, f"generator {where}")
        if n < 1:
            raise ConfigurationError(f"generator {where} must be >= 1, got {n}")
        return min(n, len(pool))

    partner_counts = _table(_weights(cfg["partner_count_weights"], "generator partner_count_weights"),
                            lambda key: roster_size(key, "partner_count_weights key"))
    waterfall_tiers = roster_size(cfg["waterfall_tiers"], "waterfall_tiers")
    backend_count = roster_size(cfg["server_backend_count"], "server_backend_count")

    ad_server_latency = cfg.get("ad_server_latency")
    if ad_server_latency is None:
        ad_server_latency = LatencyModel.fixed(Decimal(50))
    else:
        ad_server_latency = LatencyModel.from_json(ad_server_latency, "generator ad_server_latency")
        if problems := ad_server_latency.violations("generator ad_server_latency"):
            raise ConfigurationError("; ".join(problems))

    floor = _number(cfg["floor_price"], "generator floor_price")
    if floor < 0:
        raise ConfigurationError(f"generator floor_price must be non-negative, got {floor}")
    timeout_ms = _integer(cfg["timeout_ms"], "generator timeout_ms")
    if timeout_ms <= 0:
        raise ConfigurationError(f"generator timeout_ms must be positive, got {timeout_ms}")
    roster_order = cfg["roster_order"]
    if roster_order not in ("shuffle", "pool"):
        raise ConfigurationError("generator roster_order must be 'shuffle' or 'pool'")
    render_fail = _number(cfg["render_fail_probability"], "generator render_fail_probability")
    if not 0 <= render_fail <= 1:
        raise ConfigurationError(f"generator render_fail_probability must be in [0, 1], got {render_fail}")
    prefix = _typed(cfg["site_prefix"], str, "generator site_prefix", "a string")
    if not _ID_RE.match(prefix + "0"):
        raise ConfigurationError(f"generator site_prefix {prefix!r} gives site ids not matching {_ID_RE.pattern}")
    rank_start = _integer(cfg["rank_start"], "generator rank_start")
    if rank_start < 1:
        raise ConfigurationError(f"generator rank_start must be >= 1, got {rank_start}")

    counts = _quota_counts(facet_weights, num_sites)
    facet_list: list[Facet] = []
    for facet, (key, _) in zip(facets, facet_weights):
        facet_list.extend([facet] * counts[key])
    facet_list = _shuffle(RngStream(master_seed, "__generator__", 0, "facet_shuffle"), facet_list)

    # One frozen spec per (slot index, size), shared by every site that has it.
    slot_specs: list[dict[tuple[int, int], AdSlotSpec]] = []
    sites = []
    for idx, facet in enumerate(facet_list):
        site_id = f"{prefix}{idx:05d}"
        rank = rank_start + idx
        if facet is Facet.NO_ADS:
            sites.append(
                WebsiteScenario(
                    site_id=site_id, rank=rank, facet=facet, slots=(), partners=(),
                    wrapper_policy=WrapperPolicy.WAIT_TIMEOUT,
                    ad_server_latency=ad_server_latency, timeout_ms=timeout_ms,
                )
            )
            continue

        n_slots = _pick(slot_counts, RngStream(master_seed, site_id, 0, "gen:slot_count").uniform())
        while len(slot_specs) < n_slots:
            s = len(slot_specs)
            slot_specs.append({wh: AdSlotSpec(f"slot{s}", *wh, floor) for wh in slot_sizes[0]})
        size_draw = RngStream(master_seed, site_id, 0, "gen:slot_sizes").uniform
        slots = tuple(slot_specs[s][_pick(slot_sizes, size_draw())] for s in range(n_slots))

        if roster_order == "shuffle":
            ordered_pool = _shuffle(RngStream(master_seed, site_id, 0, "gen:roster"), pool)
        else:
            ordered_pool = pool

        if facet is Facet.WATERFALL_ONLY:
            roster = tuple(ordered_pool[:waterfall_tiers])
            entity = None
            policy = WrapperPolicy.WAIT_TIMEOUT
        elif facet is Facet.SERVER_SIDE:
            roster = tuple(ordered_pool[:backend_count])
            entity = ad_server
            policy = WrapperPolicy.WAIT_TIMEOUT
        else:
            k = _pick(partner_counts, RngStream(master_seed, site_id, 0, "gen:partner_count").uniform())
            roster = tuple(ordered_pool[:k])
            entity = ad_server if facet is Facet.HYBRID else None
            policy = _pick(policies, RngStream(master_seed, site_id, 0, "gen:wrapper_policy").uniform())

        sites.append(
            WebsiteScenario(
                site_id=site_id,
                rank=rank,
                facet=facet,
                slots=slots,
                partners=roster,
                wrapper_policy=policy,
                ad_server_latency=ad_server_latency,
                timeout_ms=timeout_ms,
                ad_server_partner_id=entity,
                render_fail_probability=render_fail,
            )
        )
    return sites


def validate_scenario_file(
    sf: ScenarioFile, sites: tuple[WebsiteScenario, ...]
) -> ValidationReport:
    """Whole-file validation: partner specs, cross-references, per-site checks."""
    violations: list[str] = []
    warnings: list[str] = []
    if sf.rounds_per_site < 1:
        violations.append("rounds_per_site must be >= 1")
    owners: dict[str, str] = {}  # normalised domain -> the first partner that lists it
    for spec in sf.partners.values():
        violations.extend(spec.violations())
        for domain in map(_host_suffix, spec.domains):
            owner = owners.setdefault(domain, spec.partner_id)
            if owner != spec.partner_id:
                violations.append(f"domain {domain!r} is listed by partners {owner!r} and {spec.partner_id!r}")
    checked: dict = {}  # slot specs and latency models, each checked once
    seen = set()
    for site in sites:
        if site.site_id in seen:
            violations.append(f"duplicate site_id {site.site_id!r}")
        seen.add(site.site_id)
        check_scenario(site, violations, warnings, checked)
        for pid in site.partners:
            if pid not in sf.partners:
                violations.append(f"site {site.site_id!r}: unknown partner {pid!r}")
        if site.ad_server_partner_id and site.ad_server_partner_id not in sf.partners:
            violations.append(
                f"site {site.site_id!r}: unknown ad_server_partner_id {site.ad_server_partner_id!r}"
            )
        if site.facet is Facet.HYBRID and site.ad_server_partner_id in site.partners:
            violations.append(
                f"site {site.site_id!r}: hybrid ad server entity must not also be a client bidder"
            )
    return ValidationReport(tuple(violations), tuple(warnings))
