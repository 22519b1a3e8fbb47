"""The Section 5.1 web-service stack: LLMP tiers, httperf, probes."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".client": ("ProbeLog", "UrllibProbe", "delay_distribution"),
    ".deployment": ("DelayDecomposition", "WebServiceDeployment",
                    "measure_delay_decomposition"),
    ".httperf": ("HttperfDriver", "LevelResult", "LevelStats"),
    ".loadshape": ("DiurnalShape", "FlashCrowd", "ShapedLoad"),
    ".nodes": ("CacheNode", "CallRecord", "DatabaseNode", "PortPool",
               "WebServerNode"),
    ".rotation": ("WeightedRotation",),
    ".params": ("COSTS", "LIMITS", "PER_SERVER_CAPACITY_RPS",
                "ConnectionLimits", "ServiceCosts", "WebWorkload",
                "tuned_calls_per_connection", "workload_factor"),
    ".runner": ("SweepResult", "energy_efficiency_ratio", "sweep_concurrency"),
})
