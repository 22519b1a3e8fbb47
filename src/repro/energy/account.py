"""Energy accounting: a plane's overhead joules and a run's grid impact."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass


class OverheadJoules(Mapping):
    """Joules a plane spent keeping the cluster going, not working.

    A read-only mapping of category to non-negative joules, filled in by
    a plane's ledger: the resilience ledger's mitigation waste (killed
    speculative attempts, losing hedge legs, shed replies, retries), the
    autoscale ledger's elasticity bill (boot and drain idle draw) and
    the durability ledger's repair bill (re-replication copies,
    split-brain zombie attempts).  Every category lands in the meter's
    total; breaking it out is what makes the overhead visible instead
    of smeared into the run's energy.
    """

    def __init__(self, joules: Mapping[str, float]):
        for name, value in joules.items():
            if value < 0:
                raise ValueError(f"{name} joules must be >= 0")
        self._joules = dict(joules)

    def __getitem__(self, name: str) -> float:
        return self._joules[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._joules)

    def __len__(self) -> int:
        return len(self._joules)

    @property
    def total_j(self) -> float:
        return sum(self._joules.values())


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
