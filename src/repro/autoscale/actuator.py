"""Actuation: how a planned capacity change becomes physical.

Power-off is a three-step goodbye, in the only safe order:

1. **deregister** — the node leaves the LB rotation immediately, so no
   new connection lands on it;
2. **drain** — in-flight connections finish naturally, polled every
   :data:`DRAIN_POLL_S` until the count hits zero or
   :data:`DRAIN_TIMEOUT_S` gives up (a draining node burns idle-ish
   watts the whole time — the ledger itemises them);
3. **suspend** — the fault plane's admin power-off: 0 W, bound
   processes interrupted with the same machinery a crash uses,
   scrapers stop sampling it.

Power-on is the mirror: admin boot (idle draw, not serving) for the
platform's boot delay (:data:`repro.hardware.profiles.BOOT_S`), then
power-on and *re*-registration — capacity is only advertised once it
can actually answer.
"""

from __future__ import annotations

from ..hardware.profiles import BOOT_S
from .ledger import AutoscaleLedger
from .pool import ACTIVE, BOOTING, DRAINING, OFF, PoolNode

#: How often a draining node's connection count is polled, and how long
#: the drain may take before stragglers are cut off.
DRAIN_POLL_S = 0.5
DRAIN_TIMEOUT_S = 10.0


class FleetActuator:
    """Executes boot and drain sequences for one pool."""

    def __init__(self, sim, injector, rotation, ledger: AutoscaleLedger):
        self.sim = sim
        self.injector = injector
        self.rotation = rotation
        self.ledger = ledger

    def boot_seconds(self, node: PoolNode) -> float:
        return BOOT_S.get(node.platform, 0.0)

    # -- power on ---------------------------------------------------------

    def power_on(self, node: PoolNode) -> None:
        """Begin waking ``node``; it serves after its boot delay."""
        if node.state != OFF:
            raise RuntimeError(f"cannot boot {node.name} from {node.state}")
        node.state = BOOTING
        self.ledger.count("boots")
        self.ledger.log(self.sim.now, "boot", node.name)
        self.sim.process(self._boot(node), name=f"boot-{node.name}")

    def _boot(self, node: PoolNode):
        self.injector.admin_begin_boot(node.name)
        boot_s = self.boot_seconds(node)
        if boot_s > 0:
            yield self.sim.timeout(boot_s)
        self.injector.admin_power_on(node.name)
        node.state = ACTIVE
        self.rotation.set_in_rotation(node.name, True)
        self.ledger.charge("boot", boot_s, node.idle_watts)
        self.ledger.log(self.sim.now, "serve", node.name)

    # -- power off --------------------------------------------------------

    def power_off(self, node: PoolNode) -> None:
        """Begin retiring ``node``: deregister now, suspend after drain."""
        if node.state != ACTIVE:
            raise RuntimeError(f"cannot drain {node.name} from {node.state}")
        node.state = DRAINING
        self.rotation.set_in_rotation(node.name, False)
        self.ledger.count("drains")
        self.ledger.log(self.sim.now, "drain", node.name)
        self.sim.process(self._drain(node), name=f"drain-{node.name}")

    def _drain(self, node: PoolNode):
        start = self.sim.now
        deadline = start + DRAIN_TIMEOUT_S
        while node.web.established > 0 and self.sim.now < deadline:
            yield self.sim.timeout(DRAIN_POLL_S)
        if node.web.established > 0:
            # Stragglers are cut off; their calls die with the same 503
            # a crashed server would give.  Real drains do exactly this.
            self.ledger.count("drain_timeouts")
        self.injector.admin_power_off(node.name)
        node.state = OFF
        self.ledger.charge("drain", self.sim.now - start, node.idle_watts)
        self.ledger.log(self.sim.now, "off", node.name)
