"""Energy measurement: power meters and work-done-per-joule accounting."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".account": ("EnergyReport", "GridImpact", "OverheadJoules",
                 "efficiency_gain", "work_done_per_joule"),
    ".meter": ("PowerMeter",),
})
