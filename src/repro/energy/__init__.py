"""Energy measurement: power meters and work-done-per-joule accounting."""

from .account import (EnergyReport, GridImpact, OverheadJoules,
                      efficiency_gain, work_done_per_joule)
from .meter import PowerMeter

__all__ = ["EnergyReport", "GridImpact", "OverheadJoules", "PowerMeter",
           "efficiency_gain", "work_done_per_joule"]
