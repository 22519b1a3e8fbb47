"""The durability ledger: blocks at risk, data lost, joules spent.

One :class:`DurabilityLedger` watches a run's HDFS block map and bills
everything the cluster does to keep *data* alive rather than compute:

* a seeded-cadence **sampler** walks the NameNode block census every
  ``sample_interval_s``, recording blocks-at-risk series, integrating
  *time under-replicated* and *time unavailable* in block-seconds, and
  asserting the conservation invariant ``created == live + lost`` at
  every sample point;
* **loss events** are stamped the instant the census first sees a
  block with no intact copy anywhere — the moment durability, not
  availability, failed;
* **repair joules** arrive from the
  :class:`~repro.mapreduce.hdfs.ReplicationMonitor` per completed
  block copy (disk + wire activity on both ends), and **split-brain
  joules** from the job runner per zombie attempt killed at heal, so
  the run's :class:`~repro.energy.OverheadJoules` breakdown is exact.

The ledger spawns nothing and draws no RNG at construction; the
sampler process is started by :func:`repro.durability.attach_job`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..energy import OverheadJoules

#: Ledger categories, the keys of :meth:`DurabilityLedger.to_repair_costs`.
CATEGORIES = ("re_replication", "split_brain")


class DurabilityLedger:
    """Durability accounting for one simulated run."""

    def __init__(self, sim, hdfs, sample_interval_s: float = 1.0):
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be > 0")
        self.sim = sim
        self.hdfs = hdfs
        self.sample_interval_s = sample_interval_s
        self.joules: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.node_joules: Dict[str, float] = {}
        self.repairs = 0
        self.repair_bytes = 0.0
        #: ``(t, under_replicated, unavailable, lost)`` per sample.
        self.samples: List[tuple] = []
        #: ``{"t", "blocks", "block_ids"}`` per first-seen loss.
        self.loss_events: List[Dict] = []
        self.under_replicated_block_s = 0.0
        self.unavailable_block_s = 0.0
        self.max_under_replicated = 0
        self.conservation_violations = 0
        self._known_lost: set = set()
        self._last_sample_t: Optional[float] = None

    # -- energy attribution ----------------------------------------------

    @staticmethod
    def marginal_io_watts(server) -> float:
        """Marginal power of pegged disk + NIC under the linear model.

        The component weights say how much of the idle-to-busy power
        swing storage and wire activity can claim; a repair stream
        drives both on whichever end it touches.
        """
        power = server.spec.power
        weights = power.weights
        return ((power.busy_w - power.idle_w)
                * (weights["disk"] + weights["net"]))

    def charge(self, category: str, node: str, seconds: float,
               watts: float) -> None:
        """Attribute ``seconds`` of durability work on ``node``."""
        if category not in self.joules:
            raise ValueError(f"unknown ledger category {category!r}")
        if seconds < 0 or watts < 0:
            raise ValueError("seconds and watts must be >= 0")
        joules = seconds * watts
        self.joules[category] += joules
        self.node_joules[node] = self.node_joules.get(node, 0.0) + joules

    def on_repair(self, block, source: str, target: str,
                  seconds: float, nbytes: float) -> None:
        """One block copy completed: bill both ends of the stream."""
        self.repairs += 1
        self.repair_bytes += nbytes
        datanodes = self.hdfs.datanodes
        self.charge("re_replication", source, seconds,
                    self.marginal_io_watts(datanodes[source]))
        self.charge("re_replication", target, seconds,
                    self.marginal_io_watts(datanodes[target]))

    # -- the census sampler ----------------------------------------------

    def sample(self) -> Dict[str, int]:
        """Walk the block map once; returns the census it recorded."""
        now = self.sim.now
        health, lost_ids = self.hdfs.census()
        if (health["blocks_created"]
                != health["blocks_live"] + health["blocks_lost"]):
            self.conservation_violations += 1
        if self._last_sample_t is not None and self.samples:
            dt = now - self._last_sample_t
            _t, under, unavailable, _lost = self.samples[-1]
            self.under_replicated_block_s += under * dt
            self.unavailable_block_s += unavailable * dt
        self.samples.append((now, health["under_replicated"],
                             health["unavailable"],
                             health["blocks_lost"]))
        self._last_sample_t = now
        self.max_under_replicated = max(self.max_under_replicated,
                                        health["under_replicated"])
        fresh = set(lost_ids) - self._known_lost
        if fresh:
            self._known_lost |= fresh
            self.loss_events.append({"t": now, "blocks": len(fresh),
                                     "block_ids": sorted(fresh)})
            if self.sim.trace is not None:
                self.sim.trace.instant(
                    "hdfs.data_loss", category="durability",
                    blocks=len(fresh), block_ids=sorted(fresh))
        return health

    def run(self, until: Optional[float] = None):
        """Process generator: census every ``sample_interval_s``."""
        while until is None or self.sim.now <= until:
            self.sample()
            yield self.sim.timeout(self.sample_interval_s)

    # -- results ----------------------------------------------------------

    @property
    def blocks_lost(self) -> int:
        return len(self._known_lost)

    @property
    def total_joules(self) -> float:
        return sum(self.joules.values())

    def to_repair_costs(self) -> OverheadJoules:
        return OverheadJoules(self.joules)

    def summary(self) -> Dict[str, object]:
        return {
            "joules": {k: round(v, 6) for k, v in self.joules.items()},
            "node_joules": {k: round(v, 6)
                            for k, v in sorted(self.node_joules.items())},
            "repairs": self.repairs,
            "repair_bytes": self.repair_bytes,
            "samples": len(self.samples),
            "under_replicated_block_s":
                round(self.under_replicated_block_s, 6),
            "unavailable_block_s": round(self.unavailable_block_s, 6),
            "max_under_replicated": self.max_under_replicated,
            "blocks_lost": self.blocks_lost,
            "loss_events": list(self.loss_events),
            "conservation_violations": self.conservation_violations,
        }
