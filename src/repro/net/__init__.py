"""Network substrate: fluid flows and the two-rack topology."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".flows": ("Flow", "FlowNetwork", "Segment"),
    ".topology": ("ROOM_RACKS", "TRUNK_BPS", "Topology"),
})
