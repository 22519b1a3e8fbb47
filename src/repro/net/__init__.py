"""Network substrate: fluid flows, topology, and TCP establishment."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".flows": ("Flow", "FlowNetwork", "Segment"),
    ".tcp": ("SYN_RETRY_DELAYS", "ConnectionStats", "ConnectTimeout",
             "TcpListener", "exchange"),
    ".topology": ("NetworkUnreachable", "ROOM_RACKS", "TRUNK_BPS", "Topology"),
})
