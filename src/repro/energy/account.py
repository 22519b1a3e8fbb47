"""Energy accounting: the planes' overhead ledger and a run's grid impact."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


class OverheadLedger:
    """Joules a plane spent keeping the cluster going, not working.

    The resilience plane's mitigation waste (killed speculative
    attempts, losing hedge legs, shed replies), the autoscale plane's
    elasticity bill (boot and drain idle draw) and the durability
    plane's repair bill (re-replication copies, split-brain zombie
    attempts) are all charged here, by category, at the busy-minus-idle
    slope of the component the work ran on (see
    :meth:`repro.hardware.Server.marginal_vcore_watts` and
    :meth:`~repro.hardware.Server.marginal_io_watts`).  Every charged
    joule is also in the meter's total; the ledger names which of them
    bought no work.  ``joules`` and ``counters`` hold the names given at
    construction, in that order, and no others.
    """

    def __init__(self, categories: Iterable[str],
                 counters: Iterable[str] = ()):
        self.joules: Dict[str, float] = dict.fromkeys(categories, 0.0)
        self.counters: Dict[str, int] = dict.fromkeys(counters, 0)

    def charge(self, category: str, seconds: float, watts: float) -> None:
        """Attribute ``seconds`` of overhead work at ``watts``."""
        if category not in self.joules:
            raise ValueError(f"unknown ledger category {category!r}")
        if seconds < 0 or watts < 0:
            raise ValueError("seconds and watts must be >= 0")
        self.joules[category] += seconds * watts

    def count(self, name: str) -> None:
        """One more ``name`` event; an unknown name raises KeyError."""
        self.counters[name] += 1


@dataclass(frozen=True)
class GridImpact:
    """What a run's joules cost the *grid*: grams of CO2 and dollars.

    Filled in by :mod:`repro.carbon`: the meter's power trace weighted
    by time-varying intensity (gCO2/kWh) and tariff ($/kWh) signals.
    The joules are the same whenever the run happens; these two numbers
    are what moving it around the day actually changes.
    """

    grams_co2: float = 0.0
    energy_usd: float = 0.0

    def __post_init__(self):
        if self.grams_co2 < 0 or self.energy_usd < 0:
            raise ValueError("grams_co2 and energy_usd must be >= 0")

    def __add__(self, other: "GridImpact") -> "GridImpact":
        return GridImpact(grams_co2=self.grams_co2 + other.grams_co2,
                          energy_usd=self.energy_usd + other.energy_usd)
