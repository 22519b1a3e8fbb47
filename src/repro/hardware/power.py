"""Component-weighted power model calibrated to the paper's Table 3.

Measured servers interpolate between an idle and a busy wattage as a
function of an *effective utilisation* — a weighted blend of CPU, memory,
disk and network activity.  CPU dominates (the paper attributes the
super-linear power of brawny cores to speculation machinery), but the
blend keeps the Dell cluster's web-serving draw in the paper's observed
170-200 W band even though web-server CPU only reaches 45 %.

The Edison's USB Ethernet adapter is modelled as a constant adder —
the paper measured it at ~1 W, more than the Edison SoC itself — so the
adapter-power ablation can swap it for an integrated 0.1 W port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

#: The components a server reports, in the order of its utilisation
#: window (:meth:`~repro.hardware.server.Server.utilization_window`).
COMPONENTS = ("cpu", "mem", "disk", "net")

#: Default blend of component activities into effective utilisation.
#: CPU dominates; the blend is jointly calibrated against the paper's
#: web-serving power band (170-200 W for 3 Dells at 45 % web CPU,
#: Figure 4) and the MapReduce job energies of Table 8 (a pegged-CPU
#: pi job drives a Dell near its 109 W peak).
DEFAULT_WEIGHTS: Mapping[str, float] = {
    "cpu": 0.80, "mem": 0.05, "disk": 0.075, "net": 0.075,
}


@dataclass(frozen=True)
class PowerSpec:
    """Static power description of one server.

    ``idle_w``/``busy_w`` bracket the server *without* any constant
    adapter; ``adapter_w`` is added unconditionally while present.
    ``weights`` is read once, here: its keys must be among
    :data:`COMPONENTS`, and the blend keeps its order.
    """

    idle_w: float
    busy_w: float
    adapter_w: float = 0.0
    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def __post_init__(self):
        if self.idle_w < 0 or self.busy_w < self.idle_w:
            raise ValueError("need 0 <= idle_w <= busy_w")
        if self.adapter_w < 0:
            raise ValueError("adapter_w must be >= 0")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        for component in self.weights:
            if component not in COMPONENTS:
                raise ValueError(
                    f"unknown power component {component!r}; servers "
                    f"report {list(COMPONENTS)}")
        # The blend as (window index, weight) pairs in weights order.
        object.__setattr__(self, "_blend", tuple(
            (COMPONENTS.index(component), weight)
            for component, weight in self.weights.items()))

    @property
    def min_w(self) -> float:
        """Wall power with the server idle (adapter included)."""
        return self.idle_w + self.adapter_w

    @property
    def max_w(self) -> float:
        """Wall power with the server saturated (adapter included)."""
        return self.busy_w + self.adapter_w

    def power(self, utilization: Mapping[str, float],
              pstate=None) -> float:
        """Instantaneous wall power for the given component utilisations.

        Components absent from ``utilization`` count as idle, but a key
        the weight blend does not know (``"network"`` for ``"net"``,
        say) raises: silently treating a typo as 0 utilisation would
        bill idle watts for a busy component and skew every
        work-per-joule figure downstream.  The value is
        :meth:`window_power` of the matching window.
        """
        weights = self.weights
        for component in utilization:
            if component not in weights:
                raise ValueError(
                    f"unknown power component {component!r}; the weight "
                    f"blend knows {sorted(weights)}")
        get = utilization.get
        return self.window_power(
            tuple([get(component, 0.0) for component in COMPONENTS]), pstate)

    def window_power(self, window: Tuple[float, float, float, float],
                     pstate=None) -> float:
        """Wall power for a ``(cpu, mem, disk, net)`` utilisation window.

        Each component is clamped to [0, 1] (NaN to 0) and blended by
        its weight, in ``weights`` order.  ``pstate`` (a
        :class:`~repro.hardware.cpu.PState`) rescales the *CPU share*
        of the busy-above-idle span by the state's ``busy_w_factor`` —
        a down-clocked core works longer per MI but draws less while
        doing it.  ``None`` or P0 takes the exact historical
        expression, so runs that never leave nominal frequency are
        bit-identical.
        """
        u = 0.0
        for index, weight in self._blend:
            value = window[index]
            # min(1.0, max(0.0, value)) by comparisons; NaN clamps to 0.
            if not value > 0.0:
                value = 0.0
            elif not value < 1.0:
                value = 1.0
            u += weight * value
        if pstate is not None and pstate.busy_w_factor != 1.0:
            cpu_weight = self.weights.get("cpu", 0.0)
            if cpu_weight:
                cpu_part = cpu_weight * min(1.0, max(0.0, window[0]))
                u = u - cpu_part + cpu_part * pstate.busy_w_factor
        return self.idle_w + (self.busy_w - self.idle_w) * u + self.adapter_w

    def with_adapter(self, adapter_w: float) -> "PowerSpec":
        """The same server with a different constant adapter power."""
        return PowerSpec(self.idle_w, self.busy_w, adapter_w, dict(self.weights))
