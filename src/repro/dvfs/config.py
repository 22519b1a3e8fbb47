"""Knobs for the DVFS plane.

A frozen dataclass with validation, mirroring
:mod:`repro.autoscale.config`: a config can be serialised into the
committed sweep plan.  ``None`` is off — no plane is constructed, no
process spawned, no P-state touched, keeping runs bit-identical to a
build without this package; a :class:`DvfsConfig` arms the plane with
the governor it names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.records import Record

#: The governors this package implements, in the cpufreq tradition.
GOVERNOR_KINDS = ("performance", "powersave", "ondemand")


@dataclass(frozen=True)
class DvfsConfig(Record):
    """One frequency policy's knobs.

    The static governors (``performance``, ``powersave``) pin every
    governed CPU to one end of its P-state table and need no further
    tuning.  ``ondemand`` re-evaluates each node every
    ``sampling_interval_s`` against its telemetry-scraped CPU
    utilisation averaged over ``metric_window_s``: at or above
    ``up_threshold`` it jumps straight to P0 (the Linux ondemand
    behaviour — latency is on the line, do not climb gradually), at or
    below ``down_threshold`` it steps down one state.  The thresholds
    must leave a hold band wide enough that a down-step cannot
    immediately re-trigger the up rule: stepping down one state divides
    measurable utilisation by that state's frequency ratio, so
    stability needs ``down_threshold / step_ratio < up_threshold``
    (0.30 / 0.375 with the default tables and thresholds).
    """

    kind: str = "ondemand"
    sampling_interval_s: float = 0.5
    up_threshold: float = 0.80
    down_threshold: float = 0.30
    metric_window_s: float = 1.0

    def __post_init__(self):
        if self.kind not in GOVERNOR_KINDS:
            raise ValueError(f"unknown governor kind {self.kind!r}; "
                             f"choose from {GOVERNOR_KINDS}")
        if self.sampling_interval_s <= 0:
            raise ValueError("sampling_interval_s must be > 0")
        if not (0.0 <= self.down_threshold < self.up_threshold <= 1.0):
            raise ValueError("need 0 <= down_threshold < up_threshold <= 1")
        if self.metric_window_s <= 0:
            raise ValueError("metric_window_s must be > 0")
