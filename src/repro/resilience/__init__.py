"""Graceful degradation under gray failures — and its energy price.

Gray failures (a throttled CPU, a lossy NIC) don't kill nodes, they
make them *slow*, which is worse: detectors tuned for silence never
fire, and one limping server drags a whole tier's tail latency past
the paper's 3-second QoS bound.  This package holds the mitigations
the systems literature grew for exactly that — LATE-style speculative
execution for MapReduce stragglers, circuit breakers, request hedging,
capped-backoff retries and queue-depth load shedding for the web tier
— plus the part evaluations usually omit: a ledger that prices every
duplicated or discarded byte of work in joules, so the paper's
work-done-per-joule metric can be quoted *net of the resilience tax*.

Everything here is strictly opt-in.  ``resilience=False`` is off (the
default): every run is bit-identical to a build without this package —
the same hard guarantee `repro.trace`, `repro.telemetry` and
`repro.faults` make.  The plane has nothing to choose, so
``resilience=True`` arms every mechanism at once; each one's tuning
(the LATE rule, the retry budget and backoff, the breaker's threshold
and cooldown, the hedge trigger, the shed threshold) is a constant
beside the code that reads it.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".breaker": ("CircuitBreaker",),
    ".ledger": ("ResilienceLedger",),
    ".report": ("ResilienceArm", "ResilienceTaxReport", "job_gray_plan",
                "job_resilience_experiment", "web_gray_plan",
                "web_resilience_experiment"),
})
