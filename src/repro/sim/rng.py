"""Deterministic random-number streams for reproducible experiments.

Every stochastic component draws from its own named stream derived from
one root seed, so adding a new component never perturbs the draws of
existing ones — a property the calibration relies on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

_INF = float("inf")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def heartbeat_jitter(rng: random.Random, base_s: float,
                     low: float = 0.3, high: float = 1.0) -> float:
    """One jittered wait: ``uniform(low, high) * base_s``.

    Heartbeat-paced pollers (YARN allocation, retry probes) de-phase
    their wakeups with this draw; pulling it through the caller's named
    stream keeps every delay reproducible from the run seed.  The
    default ``(0.3, 1.0)`` window and draw order match the historical
    YARN heartbeat jitter bit-for-bit.  The draw is spelt out as
    ``low + (high - low) * rng.random()``, which is exactly what
    ``Random.uniform`` computes, minus one call per heartbeat.
    """
    # One chained comparison rejects negatives, NaN and infinity alike.
    if not 0 <= base_s < _INF:
        raise ValueError(f"base_s must be finite and >= 0, got {base_s!r}")
    if not 0 <= low <= high:
        raise ValueError("need 0 <= low <= high")
    return (low + (high - low) * rng.random()) * base_s


def backoff_delay(rng: random.Random, attempt: int, base_s: float = 0.05,
                  cap_s: float = 1.0, jitter: float = 0.5) -> float:
    """Capped exponential backoff with seeded jitter.

    Attempt ``n`` (0-based) waits ``min(cap_s, base_s * 2**n)`` scaled
    by a uniform factor in ``[1 - jitter, 1]`` drawn from ``rng`` — the
    "decorrelated enough" jitter that keeps retry herds from
    re-synchronising while staying reproducible from the run seed.  The
    defaults (50 ms doubling to a 1 s cap, half-width jitter) are the
    resilience plane's retries, web calls and MapReduce attempts alike.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    if not (0 < base_s < _INF and 0 < cap_s < _INF):
        raise ValueError("base_s and cap_s must be finite and > 0")
    if not 0 <= jitter <= 1:
        raise ValueError("jitter must be in [0, 1]")
    delay = base_s * (2.0 ** attempt)
    if delay > cap_s:
        delay = cap_s
    if jitter:
        delay *= 1.0 - jitter * rng.random()
    return delay


class RngStreams:
    """A registry of named, independently seeded ``random.Random`` streams."""

    def __init__(self, root_seed: int = 20160901):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.root_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """A child registry whose streams are all namespaced by ``name``."""
        return RngStreams(derive_seed(self.root_seed, f"spawn:{name}"))
