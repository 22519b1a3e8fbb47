"""Hadoop 2.5 (YARN) configuration as the paper tuned it (Section 5.2)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite

from ..core import paperdata as paper


@dataclass(frozen=True)
class HadoopConfig:
    """Per-platform cluster-wide Hadoop settings."""

    platform: str
    block_mb: int
    replication: int
    #: Memory available to task containers per node (after OS + daemons).
    node_task_mem_mb: int
    node_vcores: int
    am_mem_mb: int
    #: NodeManager heartbeat period driving container assignment latency.
    heartbeat_s: float = 1.0
    #: Fraction of maps that must finish before reduces launch.
    slowstart: float = 0.80

    def __post_init__(self):
        if self.block_mb < 1 or self.replication < 1:
            raise ValueError("block_mb and replication must be >= 1")
        if self.node_task_mem_mb < 1 or self.node_vcores < 1:
            raise ValueError("node resources must be >= 1")
        if not 0 < self.slowstart <= 1:
            raise ValueError("slowstart must be in (0, 1]")
        # Checked here, not on the first heartbeat mid-run.
        if not (self.heartbeat_s > 0 and isfinite(self.heartbeat_s)):
            raise ValueError(
                f"heartbeat_s must be finite and > 0, got {self.heartbeat_s}")

    @property
    def block_bytes(self) -> int:
        return self.block_mb * 1000 * 1000

    def with_block_mb(self, block_mb: int) -> "HadoopConfig":
        """The scalability-test retuning knob (Section 5.3)."""
        return replace(self, block_mb=block_mb)


def default_config(platform: str) -> HadoopConfig:
    """The paper's baseline settings for each platform."""
    if platform == "edison":
        return HadoopConfig(
            platform="edison",
            block_mb=paper.S52_EDISON_BLOCK_MB,
            replication=paper.S52_EDISON_REPLICATION,
            node_task_mem_mb=paper.S52_EDISON_TASK_MEM_MB,
            node_vcores=paper.S52_EDISON_VCORES,
            am_mem_mb=paper.S52_EDISON_AM_MEM_MB,
        )
    if platform == "dell":
        return HadoopConfig(
            platform="dell",
            block_mb=paper.S52_DELL_BLOCK_MB,
            replication=paper.S52_DELL_REPLICATION,
            node_task_mem_mb=paper.S52_DELL_TASK_MEM_MB,
            node_vcores=paper.S52_DELL_VCORES,
            am_mem_mb=paper.S52_DELL_AM_MEM_MB,
        )
    raise ValueError(f"unknown platform {platform!r}")
