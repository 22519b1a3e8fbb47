"""Energy measurement: power meters and overhead/grid accounting."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".account": ("GridImpact", "OverheadLedger"),
    ".meter": ("PowerMeter",),
})
