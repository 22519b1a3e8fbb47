"""The three frequency governors, in the cpufreq tradition.

A governor is a pure decision function over one CPU's P-state table:
given the node's windowed utilisation and its current state index it
answers "which index next?" (``None`` to hold).  All actuation — the
re-rating of in-flight work, the power-trace edge, the telemetry
series — lives in :class:`~repro.dvfs.plane.DvfsPlane`; governors
stay deterministic, stateless and trivially testable.
"""

from __future__ import annotations

from typing import Optional

from .config import DvfsConfig


class PerformanceGovernor:
    """Pin every governed CPU at P0 (nominal frequency)."""

    kind = "performance"
    static = True

    def initial_index(self, n_states: int) -> int:
        return 0

    def decide(self, utilization: float, index: int,
               n_states: int) -> Optional[int]:
        return 0 if index != 0 else None


class PowersaveGovernor:
    """Pin every governed CPU at its deepest (slowest) P-state."""

    kind = "powersave"
    static = True

    def initial_index(self, n_states: int) -> int:
        return n_states - 1

    def decide(self, utilization: float, index: int,
               n_states: int) -> Optional[int]:
        return n_states - 1 if index != n_states - 1 else None


class OndemandGovernor:
    """Linux-ondemand-like demand scaling over the telemetry signal.

    Utilisation at or above the up threshold jumps straight to P0 —
    when demand arrives, latency is on the line and climbing state by
    state would stretch every in-flight request.  Utilisation at or
    below the down threshold steps down exactly one state per sampling
    interval, so the descent is gradual and each step's utilisation
    inflation (work takes ``1/dmips_factor`` longer per request) is
    observed before the next step.
    """

    kind = "ondemand"
    static = False

    def __init__(self, config: DvfsConfig):
        self.config = config

    def initial_index(self, n_states: int) -> int:
        # Start at nominal: a cold fleet must serve its first burst at
        # full speed; the governor earns the down-clocks afterwards.
        return 0

    def decide(self, utilization: float, index: int,
               n_states: int) -> Optional[int]:
        if utilization >= self.config.up_threshold:
            return 0 if index != 0 else None
        if utilization <= self.config.down_threshold:
            return index + 1 if index + 1 < n_states else None
        return None


def make_governor(config: DvfsConfig):
    """Build the governor ``config.kind`` names."""
    if config.kind == "performance":
        return PerformanceGovernor()
    if config.kind == "powersave":
        return PowersaveGovernor()
    if config.kind == "ondemand":
        return OndemandGovernor(config)
    raise ValueError(f"unknown governor kind {config.kind!r}")
