"""CPU model: virtual cores with Dhrystone-MIPS service rates.

Work is expressed in *millions of instructions* (MI).  A task claims one
virtual core (a slot of a FIFO :class:`~repro.sim.Resource`) and holds it
for ``work / dmips`` seconds.  The model captures the two facts Section
4.1 of the paper establishes:

* per-thread speed is the measured Dhrystone DMIPS (632.3 on Edison,
  11383 on the Dell R620's Xeon), and
* hyper-threaded vcores are not full cores — an SMT efficiency factor
  scales per-thread throughput when both hardware threads of a core are
  in use, which is what makes the whole-machine gap ~100x rather than
  the nameplate 12x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim import Request, Resource, Simulation


@dataclass(frozen=True)
class PState:
    """One DVFS operating point of a processor.

    ``dmips_factor`` scales the nominal per-thread DMIPS (frequency is
    what Dhrystone throughput tracks), ``busy_w_factor`` scales the
    busy-above-idle power span when a core is saturated in this state
    (voltage drops with frequency, so the span shrinks faster than
    linearly — the classic ~f*V^2 story).  P0 is always ``(1.0, 1.0)``
    so the nominal tables of the paper are reproduced bit-exactly when
    no governor ever leaves it.
    """

    name: str
    dmips_factor: float
    busy_w_factor: float

    def __post_init__(self):
        if not 0 < self.dmips_factor <= 1:
            raise ValueError("dmips_factor must be in (0, 1]")
        if not 0 < self.busy_w_factor <= 1:
            raise ValueError("busy_w_factor must be in (0, 1]")


#: The implicit single-state table: nominal frequency only.
NOMINAL_PSTATE = PState("P0", 1.0, 1.0)


#: ``busy_w_factor = dmips_factor ** PSTATE_POWER_EXPONENT``: dynamic
#: power ~ f * V^2 with voltage tracking frequency.
PSTATE_POWER_EXPONENT = 2.0


def derive_pstates(dmips_factors) -> Tuple[PState, ...]:
    """Build a P-state table, named P0, P1, ..., from relative
    frequencies alone.

    The first factor must be exactly 1.0 so P0 reproduces the nominal
    Table 3 numbers bit-exactly (1.0 ** e == 1.0 in IEEE arithmetic).
    """
    factors = tuple(dmips_factors)
    if not factors:
        raise ValueError("need at least one dmips factor")
    if factors[0] != 1.0:
        raise ValueError("the first (P0) dmips factor must be exactly 1.0")
    if any(b >= a for a, b in zip(factors, factors[1:])):
        raise ValueError("dmips factors must be strictly decreasing")
    return tuple(PState(f"P{i}", f, f ** PSTATE_POWER_EXPONENT)
                 for i, f in enumerate(factors))


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a processor.

    Parameters
    ----------
    cores:
        Physical core count.
    threads_per_core:
        Hardware threads per core (2 = hyper-threading).
    dmips_per_thread:
        Dhrystone MIPS of a single thread running alone.
    smt_efficiency:
        Throughput retained per thread when all hardware threads are
        busy (1.0 for non-SMT parts).
    pstates:
        Discrete DVFS operating points, highest frequency first.  The
        default single-entry table pins the CPU at nominal speed, which
        is bit-identical to the pre-DVFS model; richer tables only
        matter once a :mod:`repro.dvfs` governor moves off P0.
    """

    cores: int
    threads_per_core: int
    dmips_per_thread: float
    smt_efficiency: float = 1.0
    pstates: Tuple[PState, ...] = (NOMINAL_PSTATE,)

    def __post_init__(self):
        if self.cores < 1 or self.threads_per_core < 1:
            raise ValueError("cores and threads_per_core must be >= 1")
        if self.dmips_per_thread <= 0:
            raise ValueError("dmips_per_thread must be > 0")
        if not 0 < self.smt_efficiency <= 1:
            raise ValueError("smt_efficiency must be in (0, 1]")
        pstates = tuple(self.pstates)
        object.__setattr__(self, "pstates", pstates)
        if not pstates:
            raise ValueError("pstates must hold at least one state")
        if pstates[0].dmips_factor != 1.0 or pstates[0].busy_w_factor != 1.0:
            raise ValueError("P0 must carry factors of exactly 1.0 so the "
                             "nominal tables reproduce bit-exactly")
        for a, b in zip(pstates, pstates[1:]):
            if b.dmips_factor >= a.dmips_factor:
                raise ValueError("pstates must be ordered by strictly "
                                 "decreasing dmips_factor")

    @property
    def vcores(self) -> int:
        """Schedulable virtual cores."""
        return self.cores * self.threads_per_core

    @property
    def vcore_dmips(self) -> float:
        """Sustained DMIPS of one vcore when the machine is fully loaded."""
        if self.threads_per_core == 1:
            return self.dmips_per_thread
        return self.dmips_per_thread * self.smt_efficiency

    @property
    def machine_dmips(self) -> float:
        """Aggregate DMIPS with every vcore busy."""
        return self.vcores * self.vcore_dmips


class Cpu:
    """Runtime CPU: a pool of vcores executing MI-denominated work."""

    def __init__(self, sim: Simulation, spec: CpuSpec, name: str = "cpu"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.vcores = Resource(sim, capacity=spec.vcores, name=f"{name}.vcores")
        # Flat copies of what execute() needs per burst: vcore_dmips is
        # a computed property, too hot to re-derive per CPU burst.
        self._cores = spec.cores
        self._thread_dmips = spec.dmips_per_thread
        self._loaded_dmips = spec.vcore_dmips
        # Thermal-throttle factor in (0, 1]; the fault injector scales
        # it while a cpu_throttle fault is active.  1.0 means nominal.
        self.throttle = 1.0
        # Active DVFS operating point.  A governor moves it through
        # set_pstate(); in-flight bursts are re-rated per slice exactly
        # like a cpu_throttle fault — the next slice dispatched picks
        # up the new rate — and the two factors compose multiplicatively.
        self.pstate_index = 0
        self._pstate = spec.pstates[0]
        self._dvfs_factor = 1.0

    @property
    def pstate(self) -> PState:
        """The active DVFS operating point (P0 unless a governor moved it)."""
        return self._pstate

    def set_pstate(self, index: int) -> PState:
        """Switch to ``spec.pstates[index]``; returns the new state.

        Pure field flips — no events, no RNG — so with every CPU left
        at index 0 (the default) runs are bit-identical to a build
        without P-states.  Bursts already executing keep the rate they
        dispatched with; each subsequent slice re-rates, the same
        fluid approximation ``cpu_throttle`` faults use.
        """
        states = self.spec.pstates
        if not 0 <= index < len(states):
            raise ValueError(f"pstate index {index} out of range for "
                             f"{len(states)} states")
        self.pstate_index = index
        self._pstate = states[index]
        self._dvfs_factor = states[index].dmips_factor
        return self._pstate

    def service_time(self, work_mi: float) -> float:
        """Seconds one vcore needs for ``work_mi`` MI at full machine load."""
        if work_mi < 0:
            raise ValueError(f"negative work {work_mi!r}")
        return work_mi / self.spec.vcore_dmips

    def busy_time(self, work_mi: float) -> float:
        """Like :meth:`service_time`, but at the *current* speed factors.

        The seconds a vcore is actually occupied right now — what
        energy attribution must price, since a thermally throttled or
        down-clocked core burns power for the whole stretched burst.
        """
        if work_mi < 0:
            raise ValueError(f"negative work {work_mi!r}")
        return work_mi / (self.spec.vcore_dmips * self.throttle
                          * self._dvfs_factor)

    def execute(self, work_mi: float):
        """Process generator: queue for a vcore, run ``work_mi``, release.

        The service rate is fixed at dispatch from the occupancy at that
        moment (a deliberate fluid approximation: re-rating mid-burst
        would add events without changing any paper-level result).
        """
        if work_mi < 0:
            raise ValueError(f"negative work {work_mi!r}")
        # try/finally rather than the context-manager sugar: execute()
        # runs once per simulated CPU burst, and __enter__/__exit__ are
        # two extra calls per burst for the same release-on-interrupt
        # guarantee.
        vcores = self.vcores
        grant = Request(vcores, in_place=True)
        try:
            if grant.callbacks is not None:
                yield grant
            yield work_mi / self.rate()
        finally:
            vcores.release(grant)

    def rate(self) -> float:
        """DMIPS of one vcore for a burst dispatched now, its slot held.

        The rate is read against the live holder count: full
        single-thread speed while no core runs both of its hardware
        threads, the SMT-degraded rate after.  Throttle and P-state
        compose multiplicatively; the guards keep the nominal path free
        of any multiply, so untouched runs stay bit-identical to the
        pre-DVFS model.
        """
        rate = (self._thread_dmips if len(self.vcores.users) <= self._cores
                else self._loaded_dmips)
        throttle = self.throttle
        if self._dvfs_factor != 1.0:
            throttle *= self._dvfs_factor
        if throttle != 1.0:
            rate *= throttle
        return rate

    def utilization(self) -> float:
        """Instantaneous fraction of vcores that are busy."""
        return self.vcores.count / self.vcores.capacity

    def busy_vcore_seconds(self) -> float:
        """Total vcore-seconds consumed since the simulation started."""
        return self.vcores.busy_time()
