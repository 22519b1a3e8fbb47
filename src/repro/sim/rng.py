"""Deterministic random-number streams for reproducible experiments.

Every stochastic component draws from its own named stream derived from
one root seed, so adding a new component never perturbs the draws of
existing ones — a property the calibration relies on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict

_INF = float("inf")

#: Retry backoff: 50 ms doubling per attempt to a 1 s cap, scaled by a
#: uniform factor in ``[1 - BACKOFF_JITTER, 1]``.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0
BACKOFF_JITTER = 0.5


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def heartbeat_jitter(rng: random.Random, base_s: float,
                     low: float = 0.3,
                     high: float = 1.0) -> Callable[[], float]:
    """A source of jittered waits, each ``uniform(low, high) * base_s``.

    Heartbeat-paced pollers (YARN allocation, NodeManager heartbeats)
    de-phase their wakeups with these draws; pulling them through the
    caller's named stream keeps every delay reproducible from the run
    seed.  The arguments are checked once, here, so a poller builds its
    source before its loop and pays only the draw per beat.  The
    default ``(0.3, 1.0)`` window and draw order match the historical
    YARN heartbeat jitter bit-for-bit.  The draw is spelt out as
    ``low + (high - low) * rng.random()``, which is exactly what
    ``Random.uniform`` computes, minus one call per heartbeat; the
    span ``high - low`` is the same float computed once.
    """
    # One chained comparison rejects negatives, NaN and infinity alike.
    if not 0 <= base_s < _INF:
        raise ValueError(f"base_s must be finite and >= 0, got {base_s!r}")
    if not 0 <= low <= high:
        raise ValueError("need 0 <= low <= high")
    draw = rng.random
    span = high - low

    def wait() -> float:
        return (low + span * draw()) * base_s

    return wait


def backoff_delay(rng: random.Random, attempt: int) -> float:
    """Capped exponential backoff with seeded jitter.

    Attempt ``n`` (0-based) waits ``min(BACKOFF_CAP_S, BACKOFF_BASE_S *
    2**n)`` scaled by a uniform factor in ``[1 - BACKOFF_JITTER, 1]``
    drawn from ``rng`` — the "decorrelated enough" jitter that keeps
    retry herds from re-synchronising while staying reproducible from
    the run seed.  The resilience plane's web-call retries wait this.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    delay = BACKOFF_BASE_S * (2.0 ** attempt)
    if delay > BACKOFF_CAP_S:
        delay = BACKOFF_CAP_S
    return delay * (1.0 - BACKOFF_JITTER * rng.random())


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
