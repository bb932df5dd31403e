"""Seeded samplers underpinning every protocol run.

Randomness is organized as independent keyed streams: the key
(master_seed, site_id, round_index, purpose) is hashed with SHA-256 into a
64-bit seed for a SplitMix64 sequence.  Streams never share state, so
changing one site's draws cannot perturb another's, and results are
bit-identical across platforms.  Sampled times are quantized to 3 fractional
digits and prices to 6 (round-half-even) at the sampling boundary; all later
arithmetic stays in Decimal and is exact.
"""

from __future__ import annotations

import hashlib
import math
from decimal import Decimal, InvalidOperation

from .domain import BidModel, ConfigurationError, Distribution, LatencyModel

_MASK64 = (1 << 64) - 1


def _stream_seed(master_seed: int, site_id: str, round_index: int, purpose: str) -> int:
    key = f"{master_seed}|{site_id}|{round_index}|{purpose}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class RngStream:
    """One deterministic sample stream for a (site, round, purpose) key."""

    __slots__ = ("_state",)

    def __init__(self, master_seed: int, site_id: str, round_index: int, purpose: str):
        self._state = _stream_seed(master_seed, site_id, round_index, purpose)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of next_u64()."""
        # next_u64() inlined: this is the hottest call of the auction core.
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes two raw draws."""
        # u1 is in (0, 1]: k * 2**-53 + 2**-53 is exactly (k + 1) * 2**-53.
        u1 = self.uniform() + 2.0**-53
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def choice_index(self, n: int) -> int:
        return min(int(self.uniform() * n), n - 1)


def _draw(model: Distribution, stream: RngStream) -> Decimal:
    """One quantized draw, never below the model's minimum nor at or above its limit."""
    kind = model.kind
    if kind == "lognormal":
        try:
            # A latency that rounds to zero takes the smallest positive value.
            value = max(model.quantize(math.exp(model.mu + model.sigma * stream.normal())), model.minimum)
        except (OverflowError, InvalidOperation):
            value = None
        if value is None or value >= model.limit:
            raise ConfigurationError(
                f"lognormal {model.noun} model (mu={model.mu}, sigma={model.sigma}) drew a value out of range"
            )
        return value
    if kind == "fixed":
        value = model.value
        if value is None or not model.minimum <= value < model.limit:
            raise ConfigurationError(f"fixed {model.noun} {model.out_of_range(value)}")
        return value
    if kind == "empirical":
        samples = model.samples
        if not samples:
            raise ConfigurationError(f"empirical {model.noun} model has no samples")
        value = samples[stream.choice_index(len(samples))]
        if not model.minimum <= value < model.limit:
            raise ConfigurationError(f"empirical {model.noun} samples {model.out_of_range(value)}")
        return value
    raise ConfigurationError(f"unknown {model.noun} model kind {kind!r}")


def sample_latency(model: LatencyModel, stream: RngStream) -> Decimal:
    """One response-time draw in canonical milliseconds, always > 0."""
    return _draw(model, stream)


def sample_partner_bids(
    model: BidModel, stream: RngStream, response_probability, n_slots: int
) -> list[Decimal] | None:
    """Response gate plus one bid per slot; None when the partner stays silent.

    The first uniform gates the response, further draws produce the values,
    so a given stream yields the same decision sequence everywhere.
    """
    if stream.uniform() >= float(response_probability):
        return None
    return [_draw(model, stream) for _ in range(n_slots)]
