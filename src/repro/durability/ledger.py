"""The durability ledger: blocks at risk, data lost, joules spent.

One :class:`DurabilityLedger` watches a run's HDFS block map and bills
everything the cluster does to keep *data* alive rather than compute:

* a **sampler** walks the NameNode block census every
  ``SAMPLE_INTERVAL_S``, recording blocks-at-risk series, integrating
  *time under-replicated* and *time unavailable* in block-seconds, and
  asserting the conservation invariant ``created == live + lost`` at
  every sample point;
* **loss events** are stamped the instant the census first sees a
  block with no intact copy anywhere — the moment durability, not
  availability, failed;
* **repair joules** arrive from the
  :class:`~repro.mapreduce.hdfs.ReplicationMonitor` per completed
  block copy (disk + wire activity on both ends), and **split-brain
  joules** from the job runner per zombie attempt killed at heal; both
  are categories of the ledger's
  :class:`~repro.energy.account.OverheadLedger` ``joules``.

The ledger spawns nothing and draws no RNG at construction; the
sampler process is started by :func:`repro.durability.attach_job`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..energy.account import OverheadLedger

#: Ledger categories, the keys of :attr:`DurabilityLedger.joules`.
CATEGORIES = ("re_replication", "split_brain")
#: Seconds between two block censuses.
SAMPLE_INTERVAL_S = 1.0


class DurabilityLedger(OverheadLedger):
    """Durability accounting for one simulated run."""

    def __init__(self, sim, hdfs):
        super().__init__(CATEGORIES)
        self.sim = sim
        self.hdfs = hdfs
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

    def on_repair(self, source: str, target: str, seconds: float,
                  nbytes: float) -> None:
        """One block copy completed: bill both ends of the stream."""
        self.repair_bytes += nbytes
        datanodes = self.hdfs.datanodes
        self.charge("re_replication", seconds,
                    datanodes[source].marginal_io_watts())
        self.charge("re_replication", seconds,
                    datanodes[target].marginal_io_watts())

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
        """Process generator: census every ``SAMPLE_INTERVAL_S``."""
        while until is None or self.sim.now <= until:
            self.sample()
            yield self.sim.timeout(SAMPLE_INTERVAL_S)

    # -- results ----------------------------------------------------------

    @property
    def blocks_lost(self) -> int:
        return len(self._known_lost)
