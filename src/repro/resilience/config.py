"""Knobs for every mitigation, grouped per mechanism.

Everything is a frozen dataclass so a config can be hashed into an
experiment manifest.  ``None`` is off — the unmitigated arm of a paired
tax experiment; a :class:`ResilienceConfig` arms every mechanism, each
tuned by its own record.

The defaults are deliberately conservative: LATE's 1.5x-the-median
straggler rule, a two-wide speculation pool, a single hedge per request
fired at the in-flight p~90 trigger, and admission control that sheds
only once the queue passes 3/4 of the configured overload limit.  They
are meant to survive the committed gray-failure plan, not to win every
possible benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpeculationConfig:
    """LATE-style speculative execution for MapReduce map tasks.

    Parameters
    ----------
    check_interval_s:
        How often the job's speculation monitor scans running attempts.
    late_factor:
        An attempt is a straggler once its elapsed time exceeds
        ``late_factor`` times the running median of completed attempts.
    min_completed:
        Completed attempts needed before the median is trusted; below
        this the cost-model estimate anchors the baseline instead.
    max_outstanding:
        Speculative attempts allowed in flight at once (the capped
        duplicate pool — speculation must not starve first attempts).
    allocation_heartbeats:
        Heartbeat rounds a speculative attempt may wait for a container
        before giving up; first attempts keep waiting forever.
    """

    check_interval_s: float = 2.0
    late_factor: float = 1.5
    min_completed: int = 3
    max_outstanding: int = 2
    allocation_heartbeats: int = 10

    def __post_init__(self):
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        if self.late_factor <= 1.0:
            raise ValueError("late_factor must be > 1")
        if self.min_completed < 1:
            raise ValueError("min_completed must be >= 1")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.allocation_heartbeats < 1:
            raise ValueError("allocation_heartbeats must be >= 1")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic (seeded) jitter."""

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff base and cap must be > 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


@dataclass(frozen=True)
class BreakerConfig:
    """Per-backend circuit breaker (closed -> open -> half-open).

    ``slow_call_s`` makes the breaker latency-aware: a *successful*
    answer slower than this counts as a failure.  Gray failures — a
    throttled CPU, a lossy NIC — produce slow 200s, not error codes;
    a breaker that only counts errors never sees them.
    """

    failure_threshold: int = 5
    cooldown_s: float = 1.0
    slow_call_s: float = 2.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0")
        if self.slow_call_s <= 0:
            raise ValueError("slow_call_s must be > 0")


@dataclass(frozen=True)
class HedgeConfig:
    """Request hedging: duplicate a call that outlives the trigger."""

    trigger_s: float = 0.75

    def __post_init__(self):
        if self.trigger_s <= 0:
            raise ValueError("trigger_s must be > 0")


@dataclass(frozen=True)
class AdmissionConfig:
    """Queue-depth admission control on each web server.

    ``queue_fraction`` of the overload limit (``call_queue_limit``) is
    the shed threshold: beyond it new calls get a cheap fast-fail
    rather than queueing toward the client's timeout.  It sits high
    enough that redispatched + hedged traffic bursts on the healthy
    survivors do not themselves trigger shedding.
    """

    queue_fraction: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.queue_fraction <= 1.0:
            raise ValueError("queue_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ResilienceConfig:
    """Every mechanism's knobs; passing one arms them all."""

    speculation_cfg: SpeculationConfig = field(default_factory=SpeculationConfig)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_cfg: BreakerConfig = field(default_factory=BreakerConfig)
    hedge_cfg: HedgeConfig = field(default_factory=HedgeConfig)
    admission_cfg: AdmissionConfig = field(default_factory=AdmissionConfig)
