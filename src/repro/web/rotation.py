"""A capacity-weighted load-balancer rotation over web backends.

The paper's HAProxy role is plain round-robin over identical servers;
a heterogeneous pool (Edisons next to an R620) needs *weighted*
dispatch or the Dell idles at Edison rates while Edisons melt.  This is
the smooth weighted round-robin of nginx/LVS: each pick advances every
eligible backend's current score by its weight, takes the highest, and
debits the winner by the total — perfectly deterministic (no RNG
draws, so it can sit on the bit-identity-pinned arrival path), and it
interleaves a weight-3550 Dell between weight-295 Edisons instead of
sending it long monopolising bursts.

Membership is dynamic: the autoscaler registers and deregisters
backends as it wakes and drains them, and — like the existing
round-robin path — backends whose outage has crossed the health-check
detection window are skipped.
"""

from __future__ import annotations

from typing import Dict, Optional


class _Entry:
    __slots__ = ("web", "weight", "current", "in_rotation")

    def __init__(self, web, weight: float):
        self.web = web
        self.weight = weight
        self.current = 0.0
        self.in_rotation = True


class WeightedRotation:
    """Smooth weighted round-robin with dynamic membership."""

    def __init__(self, sim):
        self.sim = sim
        self._entries: Dict[str, _Entry] = {}
        #: Backends served to callers, for distribution assertions.
        self.picks: Dict[str, int] = {}

    def add(self, web, weight: float) -> None:
        """Register ``web`` (a :class:`WebServerNode`) at ``weight``."""
        if weight <= 0:
            raise ValueError("weight must be > 0")
        name = web.server.name
        if name in self._entries:
            raise ValueError(f"backend {name!r} already registered")
        self._entries[name] = _Entry(web, weight)

    def set_in_rotation(self, name: str, in_rotation: bool) -> None:
        """Add or remove one backend from dispatch (state is kept)."""
        entry = self._entries[name]
        if entry.in_rotation == in_rotation:
            return
        entry.in_rotation = in_rotation
        # A re-registered backend starts from score zero: it should
        # blend back in at its weight's pace, not instantly absorb a
        # backlog of turns accrued while absent.
        entry.current = 0.0

    def in_rotation(self, name: str) -> bool:
        return self._entries[name].in_rotation

    def pick(self) -> Optional[object]:
        """The next backend, or None when nothing is dispatchable."""
        faults = self.sim.faults
        best: Optional[_Entry] = None
        total = 0.0
        for name, entry in self._entries.items():
            if not entry.in_rotation:
                continue
            if faults is not None and faults.detected_down(name):
                continue
            total += entry.weight
            entry.current += entry.weight
            if best is None or entry.current > best.current:
                best = entry
        if best is None:
            return None
        best.current -= total
        name = best.web.server.name
        self.picks[name] = self.picks.get(name, 0) + 1
        return best.web
