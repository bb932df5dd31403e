"""Core vocabulary shared by the simulator, trace generator, and detector.

All prices are decimal CPM in USD and all times are decimal milliseconds.
Values are quantized at fixed boundaries (milliseconds to 3 fractional
digits, CPM to 6, both round-half-even) so every derived artifact is
byte-stable for a given seed.

Response times and bid prices are drawn from one distribution type,
``Distribution``: fixed, lognormal or empirical, with one JSON schema
(``value_<unit>``, ``samples_<unit>``).  ``LatencyModel`` (ms, strictly
positive) and ``BidModel`` (cpm, non-negative) differ only in their noun,
unit, quantizer and lower bound.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from typing import Iterator, NamedTuple
from urllib.parse import urlsplit
from importlib import resources

MS_QUANTUM = Decimal("0.001")
CPM_QUANTUM = Decimal("0.000001")
# Times in milliseconds stay below this bound, which keeps every difference
# of two exact at millisecond precision in the default 28-digit context.
MS_LIMIT = Decimal(10**15)

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:-]*$")

# Requesting bids for more slots than a page can plausibly display is a
# red flag worth surfacing, not an error.
SLOT_COUNT_WARNING_THRESHOLD = 20


class ConfigurationError(ValueError):
    """A scenario or model is not usable as configured."""


def read_json_file(path, what: str):
    """The JSON value in the file at ``path``, its fractions as ``Decimal``s; a
    file that cannot be read or decoded is a ConfigurationError naming ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=Decimal)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ConfigurationError(f"{what} {path} is not JSON: {exc}") from None


def _known(obj: dict, fields, where: str) -> None:
    """A key of ``obj`` outside ``fields`` is a ConfigurationError naming it:
    a misspelt field must not leave its default silently in place."""
    for key in obj:
        if key not in fields:
            raise ConfigurationError(f"{where}: unknown field {key!r}")


class TraceParseError(ValueError):
    """A line of JSON Lines input that cannot be used, by its 1-based number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message


_SURROGATE = re.compile("[\ud800-\udfff]")  # in decoded text, an undecodable byte kept as surrogate escape


def json_lines(lines) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of ``lines``, text lines
    that each end at ``"\\n"`` or at the end of the text.  A line that is not
    UTF-8 (undecodable bytes kept as surrogate escapes), not JSON, not an
    object, or that holds a lone surrogate is a ``TraceParseError``."""
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if not line.isascii() and _SURROGATE.search(line):
            raise TraceParseError(line_no, "not UTF-8 text")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(line_no, f"invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise TraceParseError(line_no, f"invalid JSON: {exc}") from None
        if type(obj) is not dict:
            raise TraceParseError(line_no, "not a JSON object")
        # Only a \u escape can now make a lone surrogate, which UTF-8 cannot encode.  json.dumps
        # nests no deeper than the json.loads that decoded the line, so it cannot overflow.
        if "\\" in line and "\\u" in line:
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise TraceParseError(line_no, "strings must be valid Unicode") from None
        yield line_no, obj


# Stands between the lines of a text decoded as one array: a string that no
# line without a backslash can hold.
_LINE_BREAK = '"\\u0000"'
_BREAK_VALUE = "\x00"


def json_text_lines(text: str) -> Iterator[tuple[int, dict]]:
    """``json_lines(text.split("\\n"))``, in one decoder call for most texts.

    A text of ASCII lines without a backslash is first decoded as one array,
    ``_LINE_BREAK`` between every two lines.  That string can only come from
    a break, so if it is every other value of the array, at every break,
    each line held exactly one value and json.loads gives that line the
    same one.  Otherwise, or if a value is not an object, the lines are
    decoded one by one, for their errors."""
    body = text[:-1] if text.endswith("\n") else text
    if body.isascii() and "\\" not in body:
        try:
            values = json.loads("[" + body.replace("\n", "," + _LINE_BREAK + ",") + "]")
        except (ValueError, RecursionError):
            values = None
        if values is not None:
            objects = values[::2]
            if (values[1::2] == [_BREAK_VALUE] * (len(objects) - 1) and body.count("\n") == len(objects) - 1
                    and all(type(obj) is dict for obj in objects)):
                return enumerate(objects, start=1)
    return json_lines(text.split("\n"))


def read_json_lines(path) -> Iterator[tuple[int, dict]]:
    """``json_lines`` of the file at ``path``, its undecodable bytes kept as surrogates so that
    their line can be named; a file that cannot be read is a ConfigurationError naming
    ``path``, and an unusable line one naming ``path:line``."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            yield from json_lines(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
    except TraceParseError as exc:
        raise ConfigurationError(f"{path}:{exc.line_no}: {exc.message}") from None


def _quantizer(quantum: Decimal):
    """The canonical ``Decimal`` of a number: whole ``quantum``s, round-half-even."""
    def quantize(value) -> Decimal:
        if not isinstance(value, Decimal):
            value = Decimal(repr(value)) if isinstance(value, float) else Decimal(value)
        return value.quantize(quantum, rounding=ROUND_HALF_EVEN)
    return quantize


quantize_ms = _quantizer(MS_QUANTUM)  # 3 fractional digits
quantize_cpm = _quantizer(CPM_QUANTUM)  # 6 fractional digits


def finite_decimal(value) -> Decimal:
    """``Decimal(str(value))``; NaN and infinities raise ValueError."""
    number = Decimal(str(value))
    if not number.is_finite():
        raise ValueError(f"not a finite number: {value!r}")
    return number


def decimal_str(value: Decimal) -> str:
    """Fixed-point rendering with trailing zeros stripped ("0.5", "350.125")."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def rounded_str(value: Decimal) -> str:
    """A report cell or score: ``value`` rounded as a CPM is, printed by ``decimal_str``."""
    return decimal_str(quantize_cpm(value))


# The text of json.dumps(value, separators=(",", ":")): one JSON Lines row.
compact_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def indented_json(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``."""
    return json.dumps(value, indent=2, sort_keys=True)


class Facet(str, Enum):
    CLIENT_SIDE = "client_side"
    SERVER_SIDE = "server_side"
    HYBRID = "hybrid"
    WATERFALL_ONLY = "waterfall_only"
    NO_ADS = "no_ads"


HB_FACETS = (Facet.CLIENT_SIDE, Facet.SERVER_SIDE, Facet.HYBRID)

# A bid's channel: asked for by the wrapper in the page, or collected by the ad server.
CHANNEL_CLIENT = "client"
CHANNEL_AD_SERVER = "ad_server"


class WrapperPolicy(str, Enum):
    WAIT_ALL = "wait_all"
    WAIT_TIMEOUT = "wait_timeout"
    IMMEDIATE = "immediate"


class Distribution(NamedTuple):
    """Sampling model for one random quantity: a fixed value, a lognormal
    (mu and sigma of the underlying normal, in log-units), or an empirical
    sample list.

    Subclasses set the class attributes that the schema and the shared
    checks read: ``noun``; ``unit``, the JSON key suffix (value_<unit>,
    samples_<unit>); ``quantize``, to a canonical ``Decimal``;
    ``minimum``, the smallest value a draw may take; and ``limit``, which
    every draw stays below.
    """

    kind: str
    value: Decimal | None = None
    mu: float | None = None
    sigma: float | None = None
    samples: tuple[Decimal, ...] = ()

    @classmethod
    def fixed(cls, value):
        return cls(kind="fixed", value=cls.quantize(value))

    @classmethod
    def lognormal(cls, mu: float, sigma: float):
        return cls(kind="lognormal", mu=float(mu), sigma=float(sigma))

    @classmethod
    def empirical(cls, samples):
        return cls(kind="empirical", samples=tuple(cls.quantize(s) for s in samples))

    @classmethod
    def out_of_range(cls, value: Decimal | None) -> str | None:
        """The rule a fixed value or sample breaks, as "must be ..."; None if it is in range."""
        if value is None or value < cls.minimum:
            return "must be strictly positive" if cls.minimum > 0 else "must be non-negative"
        return f"must be below {cls.limit}" if value >= cls.limit else None

    def violations(self, where: str) -> list[str]:
        noun = self.noun
        if self.kind == "fixed":
            if problem := self.out_of_range(self.value):
                return [f"{where}: fixed {noun} {problem}"]
        elif self.kind == "lognormal":
            if self.mu is None or self.sigma is None or self.sigma < 0:
                return [f"{where}: lognormal {noun} needs mu and sigma >= 0"]
            if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
                return [f"{where}: lognormal {noun} needs finite mu and sigma"]
        elif self.kind == "empirical":
            if not self.samples:
                return [f"{where}: empirical {noun} needs at least one sample"]
            if problem := self.out_of_range(min(self.samples)) or self.out_of_range(max(self.samples)):
                return [f"{where}: empirical {noun} samples {problem}"]
        else:
            return [f"{where}: unknown {noun} model kind {self.kind!r}"]
        return []

    def to_json(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", f"value_{self.unit}": decimal_str(self.value)}
        if self.kind == "lognormal":
            return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}
        return {"kind": "empirical", f"samples_{self.unit}": [decimal_str(s) for s in self.samples]}

    @classmethod
    def from_json(cls, obj: dict, where: str | None = None):
        where = where or f"{cls.noun}_model"
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{where}: expected a JSON object, got {obj!r}")
        kind = obj.get("kind")
        schemas = {"fixed": ("kind", f"value_{cls.unit}"), "lognormal": ("kind", "mu", "sigma"),
                   "empirical": ("kind", f"samples_{cls.unit}")}
        if not isinstance(kind, str) or kind not in schemas:
            raise ConfigurationError(f"{where}: unknown kind {kind!r}")
        _known(obj, schemas[kind], where)
        try:
            if kind == "fixed":
                return cls.fixed(finite_decimal(obj[f"value_{cls.unit}"]))
            if kind == "lognormal":
                return cls.lognormal(_real(obj, "mu"), _real(obj, "sigma"))
            return cls.empirical(finite_decimal(s) for s in obj[f"samples_{cls.unit}"])
        except (KeyError, InvalidOperation, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: bad parameters for kind {kind!r}: {exc}") from exc


def _real(obj: dict, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool):  # float(True) is 1.0
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


class LatencyModel(Distribution):
    """One endpoint's response time in milliseconds."""

    noun, unit, quantize = "latency", "ms", staticmethod(quantize_ms)
    minimum = MS_QUANTUM  # strictly positive: values are whole quanta
    limit = MS_LIMIT  # a trace's timestamps stay below it


class BidModel(Distribution):
    """One partner's bid price in CPM USD."""

    noun, unit, quantize = "bid", "cpm", staticmethod(quantize_cpm)
    minimum = Decimal(0)  # non-negative
    limit = Decimal("Infinity")


class AdSlotSpec(NamedTuple):
    slot_id: str
    width: int
    height: int
    floor_price: Decimal

    @property
    def size(self) -> str:
        return f"{self.width}x{self.height}"

    def violations(self, where: str, duplicate: bool = False) -> list[str]:
        """The slot's own problems; ``duplicate`` adds that its site repeats its id."""
        out = []
        if not _ID_RE.match(self.slot_id or ""):
            out.append(f"{where}: slot_id must match {_ID_RE.pattern}")
        if duplicate:
            out.append(f"{where}: duplicate slot_id")
        if self.width <= 0 or self.height <= 0:
            out.append(f"{where}: width and height must be positive")
        if self.floor_price < 0:
            out.append(f"{where}: floor_price must be non-negative")
        return out


class DemandPartnerSpec(NamedTuple):
    """A bidder: where its traffic comes from and how it bids.

    response_probability is the chance the partner answers a bid request at
    all; partners that know nothing about a user often decline outright.
    """

    partner_id: str
    domains: tuple[str, ...]
    latency_model: LatencyModel
    bid_model: BidModel
    response_probability: Decimal = Decimal(1)

    def violations(self) -> list[str]:
        where = f"partner {self.partner_id!r}"
        out = []
        if not _ID_RE.match(self.partner_id or ""):
            out.append(f"{where}: partner_id must match {_ID_RE.pattern}")
        if not self.domains:
            out.append(f"{where}: domains must be non-empty")
        if not all(map(_bare_host, self.domains)):
            out.append(f"{where}: domains must hold bare host names, with no scheme, port, path, "
                       "userinfo or blank")
        if not (0 <= self.response_probability <= 1):
            out.append(f"{where}: response_probability must be in [0, 1]")
        out.extend(self.latency_model.violations(f"{where} latency_model"))
        out.extend(self.bid_model.violations(f"{where} bid_model"))
        return out


class WebsiteScenario(NamedTuple):
    """One publisher's configuration for a simulated round.

    For waterfall_only sites the partner order is the tier priority.  The
    ad_server_partner_id names the entity acting as ad server for the
    server_side and hybrid facets; client_side publishers run their own ad
    server, reached at a synthetic first-party host.
    """

    site_id: str
    rank: int
    facet: Facet
    slots: tuple[AdSlotSpec, ...]
    partners: tuple[str, ...]
    wrapper_policy: WrapperPolicy
    ad_server_latency: LatencyModel
    timeout_ms: int = 3000
    ad_server_partner_id: str | None = None
    render_fail_probability: Decimal = Decimal(0)


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_scenario(scenario: WebsiteScenario) -> ValidationReport:
    """Check every scenario invariant; reports, never raises.

    Oversized slot rosters (> 20) are flagged as a warning only: real sites
    do auction that many, it just merits a second look.
    """
    v: list[str] = []
    w: list[str] = []
    sid = scenario.site_id
    if not _ID_RE.match(sid or ""):
        v.append(f"site {sid!r}: site_id must match {_ID_RE.pattern}")
    if scenario.rank < 1:
        v.append(f"site {sid!r}: rank must be >= 1")
    if scenario.timeout_ms <= 0:
        v.append(f"site {sid!r}: timeout_ms must be positive")
    elif scenario.timeout_ms >= MS_LIMIT:
        v.append(f"site {sid!r}: timeout_ms must be below {MS_LIMIT}")
    if not (0 <= scenario.render_fail_probability <= 1):
        v.append(f"site {sid!r}: render_fail_probability must be in [0, 1]")

    if not scenario.slots and scenario.facet is not Facet.NO_ADS:
        v.append(f"site {sid!r}: slots empty")
    seen_slots = set()
    for slot in scenario.slots:
        v.extend(slot.violations(f"site {sid!r} slot {slot.slot_id!r}", slot.slot_id in seen_slots))
        seen_slots.add(slot.slot_id)
    if len(scenario.slots) > SLOT_COUNT_WARNING_THRESHOLD:
        w.append(
            f"site {sid!r}: {len(scenario.slots)} ad slots auctioned; "
            f"more than {SLOT_COUNT_WARNING_THRESHOLD} is unusual and may indicate "
            "a misconfigured wrapper or inventory inflation"
        )

    if scenario.facet in (Facet.CLIENT_SIDE, Facet.HYBRID) and not scenario.partners:
        v.append(f"site {sid!r}: facet {scenario.facet.value} requires a non-empty partner list")
    if scenario.facet is Facet.WATERFALL_ONLY and not scenario.partners:
        v.append(f"site {sid!r}: waterfall_only requires at least one tier partner")
    if scenario.facet in (Facet.SERVER_SIDE, Facet.HYBRID) and not scenario.ad_server_partner_id:
        v.append(f"site {sid!r}: facet {scenario.facet.value} requires ad_server_partner_id")
    seen_partners = set()
    for pid in scenario.partners:
        if pid in seen_partners:
            v.append(f"site {sid!r}: duplicate partner {pid!r} in roster")
        seen_partners.add(pid)
    v.extend(scenario.ad_server_latency.violations(f"site {sid!r} ad_server_latency"))
    return ValidationReport(tuple(v), tuple(w))


def _host_suffix(domain: str) -> str:
    """A directory entry's key: lower case, without surrounding blanks or dots."""
    return domain.lower().strip().strip(".")


def _bare_host(domain: str) -> bool:
    """Whether a domains entry is what the host of a URL on it gives back,
    so that the directory entry it makes matches that URL."""
    try:
        host = urlsplit(f"https://{domain}/").hostname
    except ValueError:  # an unbalanced IPv6 bracket
        return False
    return host == domain.lower() and bool(_host_suffix(domain)) and not any(map(str.isspace, domain))


class PartnerDirectory(NamedTuple):
    """Hostname-suffix to partner-id map used for request attribution.

    Matching is on whole host labels: sub.adnxs.com matches the adnxs.com
    entry, notadnxs.com does not.  Treated as immutable after construction.
    """

    entries: dict[str, str]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "PartnerDirectory":
        return cls({_host_suffix(suffix): pid for suffix, pid in mapping.items()})

    @classmethod
    def from_file(cls, path) -> "PartnerDirectory":
        data = read_json_file(path, "directory file")
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise ConfigurationError(f"{path}: directory must be a JSON object of suffix -> partner_id")
        for key in data:
            if not _bare_host(key):  # no URL host could match it
                raise ConfigurationError(f"{path}: directory key {key!r} is not a bare host name, with no scheme, "
                                         "port, path, userinfo or blank")
        return cls.from_mapping(data)

    def to_json(self) -> dict[str, str]:
        return dict(sorted(self.entries.items()))


def lookup_partner(host: str, directory: PartnerDirectory) -> str | None:
    """Longest label-boundary suffix match; None when no entry matches."""
    labels = host.lower().rstrip(".").split(".")
    for start in range(len(labels)):
        suffix = ".".join(labels[start:])
        pid = directory.entries.get(suffix)
        if pid is not None:
            return pid
    return None


def builtin_directory() -> PartnerDirectory:
    """Seed directory covering the major demand partners; user-extensible."""
    ref = resources.files("hbarena").joinpath("data/partners.json")
    with ref.open("r", encoding="utf-8") as fh:
        return PartnerDirectory.from_mapping(json.load(fh))
