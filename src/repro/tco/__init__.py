"""Section 6 total-cost-of-ownership model."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".model": ("DELL_TCO", "EDISON_TCO", "HOURS_PER_YEAR", "TcoInputs",
               "amortized_hardware_usd", "cluster_tco", "energy_cost_usd",
               "node_energy_cost", "savings_fraction", "table10",
               "weighted_energy_rate"),
})
