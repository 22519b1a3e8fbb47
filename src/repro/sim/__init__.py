"""From-scratch discrete-event simulation kernel used by all substrates."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".errors": ("Interrupt", "SimulationError"),
    ".kernel": ("AllOf", "AnyOf", "Event", "Process", "Simulation", "Timeout"),
    ".monitor": ("TimeSeries", "periodic_sampler"),
    ".resources": ("Container", "Request", "Resource", "Store"),
    ".rng": ("RngStreams", "backoff_delay", "derive_seed", "heartbeat_jitter"),
})
