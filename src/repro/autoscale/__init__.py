"""Autoscaling: closing the loop from telemetry to fleet capacity.

The paper provisions statically — pick a platform, pick a Table 6
rung, measure the day.  This package adds the missing control plane:
a simulated-time controller that scrapes the telemetry TSDB on a
fixed interval, decides a desired capacity (thresholds with hysteresis
and cooldown on a demand extrapolated one boot-time ahead over the
diurnal history), and actuates it realistically — boot delays at idle draw,
connection draining before suspend, LB deregistration first — against
a heterogeneous Edison/R620 pool behind capacity-weighted routing.
Every joule elasticity costs (boot energy, drained-but-idle watts) is
itemised by a ledger and charged against the SLO error budget.

Everything is strictly opt-in.  ``autoscale=False`` is off (the
default): no controller, ledger or extra process exists and every run
is bit-identical to a build without this package — the same hard
guarantee `repro.trace`, `repro.telemetry`, `repro.faults` and
`repro.resilience` make.  The plane has nothing to choose, so
``autoscale=True`` arms it: the policy's band, cooldown and history,
the controller's tick and window, the drain timings and the platforms'
boot times (:data:`repro.hardware.profiles.BOOT_S`) are constants
beside the code that reads them.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".actuator": ("FleetActuator",),
    ".controller": ("AutoscaleController",),
    ".deployment": ("HybridWebDeployment",),
    ".ledger": ("AutoscaleLedger", "ScalingAction"),
    ".policy": ("PredictivePolicy",),
    ".pool": ("ACTIVE", "BOOTING", "DRAINING", "OFF", "FleetPool", "PoolNode"),
    ".report": ("AutoscaleArm", "AutoscaleReport", "DAY_SEED", "DayPlan",
                "autoscale_experiment"),
})
