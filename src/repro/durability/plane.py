"""Wiring the durability plane onto a MapReduce run.

:func:`attach_job` is the one integration point callers need.  With
``None`` it returns ``None`` without touching the runner — the
bit-identity contract every opt-in package here makes.  A config arms
(in dependency order):

1. **rack-aware placement** — flips the HDFS default-placement flag
   *before* any input is staged, so the committed day's placement arms
   differ only in where replicas land;
2. **phi-accrual detection** — one
   :class:`~repro.faults.PhiAccrualDetector` shared by the YARN expiry
   path and the repair loop's loss confirmation, fed by per-slave
   heartbeat processes on seeded jittered streams
   (``durability.phi.<node>``), which skip a beat whenever the node is
   down *or severed* — exactly the signal a partition corrupts;
3. **the repair loop** — :meth:`~repro.mapreduce.hdfs.Hdfs.enable_repair`
   with its stock throttle, billing the ledger per block copy;
4. **the ledger and its census sampler** — the run's durability bill
   and blocks-at-risk record.

The detector, the repair loop and the sampler run at their stock
values (phi threshold 8 over a 64-beat window, a 200 MB/s repair
throttle with two streams, a 1 s census); only the placement policy is
a choice a committed experiment varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.records import Record
from ..faults.phi import PhiAccrualDetector
from ..sim.rng import heartbeat_jitter
from .ledger import DurabilityLedger

#: NodeManager heartbeat period the seeded feeders jitter around; the
#: phi detector's default prior inter-arrival is the same 1 s.
HEARTBEAT_S = 1.0


@dataclass(frozen=True)
class DurabilityConfig(Record):
    """What a durability arm chooses: rack-aware or oblivious placement."""

    rack_aware: bool = False


def _heartbeat_feeder(sim, detector, node: str, rng):
    """Process generator: one NodeManager's heartbeat stream.

    Beats arrive with seeded jitter so the detector has a real
    inter-arrival distribution to fit.  A beat is *dropped* (not
    delayed) while the node is down or unreachable — silence is the
    only way the RM side learns anything is wrong.
    """
    wait = heartbeat_jitter(rng, HEARTBEAT_S, low=0.9, high=1.1)
    while True:
        yield wait()
        faults = sim.faults
        if faults is None or (faults.is_up(node)
                              and faults.is_reachable(node)):
            detector.beat(node)


def attach_job(runner, config: Optional[DurabilityConfig]
               ) -> Optional[DurabilityLedger]:
    """Arm the durability plane on a JobRunner, or do nothing.

    Must be called *before* :meth:`~repro.mapreduce.JobRunner.run`
    stages input — placement policy is decided at write time.  Returns
    the armed :class:`DurabilityLedger`, or ``None`` when ``config`` is
    ``None`` (in which case the runner is untouched).
    """
    if config is None:
        return None
    if runner.hdfs.files:
        raise RuntimeError("attach the durability plane before staging "
                           "input: placement policy is decided at write "
                           "time")
    runner.hdfs.rack_aware = config.rack_aware
    ledger = DurabilityLedger(runner.sim, runner.hdfs)
    runner.durability_ledger = ledger
    detector = PhiAccrualDetector(runner.sim)
    runner._phi = detector
    for server in runner.slave_servers:
        node = server.name
        rng = runner.rng.stream(f"durability.phi.{node}")
        runner.sim.process(
            _heartbeat_feeder(runner.sim, detector, node, rng),
            name=f"heartbeat-{node}")
    runner.hdfs.enable_repair(ledger=ledger, detector=detector)
    runner.sim.process(ledger.run(), name="durability-ledger")
    return ledger
