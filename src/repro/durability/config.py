"""Knobs for the durability plane.

Frozen dataclasses with validation, mirroring :mod:`repro.dvfs.config`:
a config can be serialised into the committed durability day.  ``None``
is off — no phi detector, heartbeat feeder, repair monitor, ledger or
sampler exists, keeping runs bit-identical to a build without this
package; a :class:`DurabilityConfig` arms the whole plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.records import Record, decoded


@dataclass(frozen=True)
class PhiConfig(Record):
    """The phi-accrual failure detector's knobs.

    ``threshold`` is the suspicion level (Hayashibara's phi): 8 means
    "the odds this silence is ordinary jitter are 1 in 10^8".
    ``heartbeat_s`` is the NodeManager heartbeat period the seeded
    feeder streams jitter around; ``window`` and ``min_std_s`` bound
    the inter-arrival history the detector fits.
    """

    threshold: float = 8.0
    window: int = 64
    min_std_s: float = 0.05
    heartbeat_s: float = 1.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.min_std_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("min_std_s and heartbeat_s must be > 0")


@dataclass(frozen=True)
class RepairConfig(Record):
    """The NameNode-style re-replication loop's knobs.

    ``throttle_bps`` caps aggregate repair traffic like
    ``dfs.datanode.balance.bandwidthPerSec``; ``max_streams`` bounds
    concurrent block copies.  Loss is confirmed by the plane's phi
    detector.
    """

    throttle_bps: float = 200e6
    max_streams: int = 2

    def __post_init__(self):
        if self.throttle_bps <= 0:
            raise ValueError("throttle_bps must be > 0")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")


@dataclass(frozen=True)
class DurabilityConfig(Record):
    """The whole plane: phi detection, repair, ledger and sampler."""

    rack_aware: bool = False
    phi: PhiConfig = decoded(PhiConfig.from_dict, default_factory=PhiConfig)
    repair: RepairConfig = decoded(RepairConfig.from_dict,
                                   default_factory=RepairConfig)
    sample_interval_s: float = 1.0

    def __post_init__(self):
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be > 0")
