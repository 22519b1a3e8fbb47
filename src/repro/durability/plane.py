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
   with the config's throttle, billing the ledger per block copy;
4. **the ledger and its census sampler** — the run's durability bill
   and blocks-at-risk record.
"""

from __future__ import annotations

from typing import Optional

from ..faults.phi import PhiAccrualDetector
from ..sim.rng import heartbeat_jitter
from .config import DurabilityConfig
from .ledger import DurabilityLedger


def _heartbeat_feeder(sim, detector, node: str, rng, base_s: float,
                      until: Optional[float]):
    """Process generator: one NodeManager's heartbeat stream.

    Beats arrive with seeded jitter so the detector has a real
    inter-arrival distribution to fit.  A beat is *dropped* (not
    delayed) while the node is down or unreachable — silence is the
    only way the RM side learns anything is wrong.
    """
    while until is None or sim.now <= until:
        yield heartbeat_jitter(rng, base_s, low=0.9, high=1.1)
        faults = sim.faults
        if faults is None or (faults.is_up(node)
                              and faults.is_reachable(node)):
            detector.beat(node)


def attach_job(runner, config: Optional[DurabilityConfig], *,
               telemetry=None,
               until: Optional[float] = None) -> Optional[DurabilityLedger]:
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
    ledger = DurabilityLedger(runner.sim, runner.hdfs,
                              telemetry=telemetry,
                              sample_interval_s=config.sample_interval_s)
    runner.durability_ledger = ledger
    detector = PhiAccrualDetector(
        runner.sim, threshold=config.phi.threshold,
        window=config.phi.window, min_std_s=config.phi.min_std_s,
        expected_s=config.phi.heartbeat_s)
    runner._phi = detector
    for server in runner.slave_servers:
        node = server.name
        rng = runner.rng.stream(f"durability.phi.{node}")
        runner.sim.process(
            _heartbeat_feeder(runner.sim, detector, node, rng,
                              config.phi.heartbeat_s, until),
            name=f"heartbeat-{node}")
    runner.hdfs.enable_repair(throttle_bps=config.repair.throttle_bps,
                              max_streams=config.repair.max_streams,
                              ledger=ledger, detector=detector)
    runner.sim.process(ledger.run(until), name="durability-ledger")
    return ledger
