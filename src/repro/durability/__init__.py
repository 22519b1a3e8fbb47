"""Durability: partitions, adaptive detection, re-replication, the bill.

The paper's reliability argument (Section 6) is a bet: replicated HDFS
on 35 wimpy nodes rides out failures that would cripple a 3-node
brawny cluster.  This package stress-tests that bet past single-node
crashes, into the failure class that actually separates rack-scale
micro-server enclosures from big boxes — *network partitions*:

* rack/trunk cuts (``partition``, ``switch_down`` fault kinds) sever
  reachability without killing nodes, producing real split-brain:
  zombie duplicate attempts on the minority side, YARN re-execution on
  the majority, and heal-time reconciliation that kills duplicates and
  re-registers survivors without double-counting work or downtime;
* a phi-accrual failure detector (:class:`repro.faults.PhiAccrualDetector`)
  fed by seeded heartbeat streams replaces fixed-expiry guessing, so
  dead and merely-unreachable nodes are told apart adaptively;
* a NameNode-style repair loop (:class:`repro.mapreduce.hdfs.ReplicationMonitor`)
  detects under-replication on confirmed loss and re-replicates over
  the real ToR/trunk topology through a bandwidth throttle;
* the :class:`DurabilityLedger` bills it all — blocks-at-risk series,
  time-under-replicated integrals, data-loss events, and repair and
  split-brain joules charged as :class:`repro.energy.OverheadLedger`
  categories — and the committed durability day reproduces why
  rack-aware r=2 is the knee on the Edison cluster.

Everything is strictly opt-in.  ``None`` is off (the default): no
detector, feeder, monitor, ledger or sampler exists and every run is
bit-identical to a build without this package — the same hard
guarantee `repro.trace`, `repro.telemetry`, `repro.faults`,
`repro.resilience`, `repro.autoscale`, `repro.carbon` and
`repro.dvfs` make.  A :class:`DurabilityConfig` arms the whole plane;
its one field, ``rack_aware``, is the only choice the committed day
varies — the detector, repair loop and census run at their stock
values.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".ledger": ("DurabilityLedger",),
    ".plane": ("DurabilityConfig", "attach_job"),
    ".report": ("DAY_SEED", "DurabilityArm", "DurabilityPlan",
                "DurabilityReport", "durability_experiment"),
})
