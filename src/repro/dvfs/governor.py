"""The three frequency governors, in the cpufreq tradition.

A governor is a pure decision function over one CPU's P-state table:
given the node's windowed utilisation and its current state index it
answers "which index next?" (``None`` to hold).  All actuation — the
re-rating of in-flight work, the power-trace edge, the telemetry
series — lives in :class:`~repro.dvfs.plane.DvfsPlane`; governors
stay deterministic, stateless and trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.records import Record

#: The governors this package implements, in the cpufreq tradition.
GOVERNOR_KINDS = ("performance", "powersave", "ondemand")

#: ``ondemand`` jumps to P0 at or above this windowed utilisation...
UP_THRESHOLD = 0.80
#: ...and steps down one state at or below this one.  The hold band
#: must be wide enough that a down-step cannot immediately re-trigger
#: the up rule: stepping down one state divides measurable utilisation
#: by that state's frequency ratio, so stability needs
#: ``DOWN_THRESHOLD / step_ratio < UP_THRESHOLD`` (0.30 / 0.375 with
#: the committed P-state tables).
DOWN_THRESHOLD = 0.30


@dataclass(frozen=True)
class DvfsConfig(Record):
    """What a DVFS arm chooses: the governor ``kind``.

    The static governors (``performance``, ``powersave``) pin every
    governed CPU to one end of its P-state table.  ``ondemand``
    re-evaluates each node on the plane's sampling tick against its
    telemetry-scraped CPU utilisation, with the thresholds above.
    """

    kind: str = "ondemand"

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in GOVERNOR_KINDS:
            raise ValueError(f"unknown governor kind {self.kind!r}; "
                             f"choose from {GOVERNOR_KINDS}")


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

    def initial_index(self, n_states: int) -> int:
        # Start at nominal: a cold fleet must serve its first burst at
        # full speed; the governor earns the down-clocks afterwards.
        return 0

    def decide(self, utilization: float, index: int,
               n_states: int) -> Optional[int]:
        if utilization >= UP_THRESHOLD:
            return 0 if index != 0 else None
        if utilization <= DOWN_THRESHOLD:
            return index + 1 if index + 1 < n_states else None
        return None


def make_governor(config: DvfsConfig):
    """Build the governor ``config.kind`` names."""
    return {"performance": PerformanceGovernor,
            "powersave": PowersaveGovernor,
            "ondemand": OndemandGovernor}[config.kind]()
