"""Cluster-wide fault injection, failure detection and recovery.

The subsystem has three parts, mirroring how chaos tooling is layered on
a real cluster:

* :mod:`repro.faults.models` — *what* can go wrong: node crashes,
  disk failures, CPU throttling, packet loss and rack partitions, each
  either scheduled one-shot or (crashes and the gray kinds) drawn from
  a seeded exponential MTBF/MTTR process, validated up front.
* :mod:`repro.faults.injector` — *making* it go wrong: a
  :class:`FaultInjector` attached to a cluster runs each fault as a
  simulation process, interrupts the victim's active work through the
  kernel's :class:`~repro.sim.Interrupt`, flips node state that the
  YARN/HDFS/web layers consult, and restores everything on repair.
* :mod:`repro.faults.report` — *accounting* for it: availability,
  MTTR, goodput-vs-offered-load and energy-overhead summaries, plus
  the headline kill-one-node experiments of the paper's reliability
  argument (replication 2-of-35 Edisons vs 1-of-2 Dells).

An attached injector whose plan is empty leaves every run bit-identical
to an unattached run — the same hard guarantee `repro.trace` makes, and
tested the same way.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".models": ("Fault", "FaultCause", "FaultPlan", "GRAY_KINDS",
                "PARTITION_KINDS", "RecurringFault",
                "cpu_throttle", "disk_failure", "node_crash",
                "node_set_partition", "packet_loss", "rack_partition",
                "single_node_kill", "switch_down"),
    ".injector": ("FaultInjector", "FaultRecord"),
    ".phi": ("PhiAccrualDetector",),
    ".report": ("AvailabilityReport", "JobChaosResult", "WebChaosResult",
                "job_kill_experiment", "web_kill_experiment"),
})
