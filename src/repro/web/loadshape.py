"""Time-varying open-loop arrival shapes: diurnal days, flash crowds.

The paper drives each measurement at a *fixed* offered rate; an
autoscaling experiment needs the thing real control planes face — a
day.  A :class:`ShapedLoad` is a deterministic rate function r(t) in
requests/s built from a raised-cosine diurnal swing plus any number of
flash crowds (multiplicative bursts with a ramp, a hold and a decay).
The httperf driver turns it into Poisson arrivals by Lewis-Shedler
thinning against the shape's peak bound, so arrivals stay seeded and
reproducible: same shape + same seed = the same connection sequence,
which is what lets the headline experiment commit one canonical day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.records import Record, decoded, domain, many


@dataclass(frozen=True)
class DiurnalShape(Record):
    """A raised-cosine day: trough at ``trough_at_s``, peak half a
    period later.

    ``rate(t) = base + (peak - base) * (1 - cos(2*pi*(t - trough)/period)) / 2``
    """

    base_rps: float = domain(">= 0")
    peak_rps: float = domain("> 0")
    period_s: float = domain("> 0")
    trough_at_s: float = domain("any", default=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.peak_rps < self.base_rps:
            raise ValueError("DiurnalShape: need base_rps <= peak_rps")

    def rate(self, t: float) -> float:
        phase = 2.0 * math.pi * (t - self.trough_at_s) / self.period_s
        return (self.base_rps
                + (self.peak_rps - self.base_rps) * 0.5 * (1.0 - math.cos(phase)))


@dataclass(frozen=True)
class FlashCrowd(Record):
    """A multiplicative burst: ramp up, hold, decay back to 1x.

    The factor is 1.0 outside the event, climbs linearly to
    ``multiplier`` over ``ramp_s``, holds for ``hold_s``, then decays
    linearly over ``decay_s``.  A linear ramp (not a step) is what a
    real flash crowd looks like — and what gives a lookahead policy a
    visible slope to extrapolate before capacity is actually short.
    """

    at_s: float = domain(">= 0")
    ramp_s: float = domain("> 0")
    hold_s: float = domain(">= 0")
    decay_s: float = domain("> 0")
    multiplier: float = domain(">= 1")

    def factor(self, t: float) -> float:
        dt = t - self.at_s
        if dt <= 0:
            return 1.0
        if dt < self.ramp_s:
            return 1.0 + (self.multiplier - 1.0) * dt / self.ramp_s
        dt -= self.ramp_s
        if dt < self.hold_s:
            return self.multiplier
        dt -= self.hold_s
        if dt < self.decay_s:
            return self.multiplier - (self.multiplier - 1.0) * dt / self.decay_s
        return 1.0


@dataclass(frozen=True)
class ShapedLoad(Record):
    """A diurnal base modulated by zero or more flash crowds."""

    diurnal: DiurnalShape = decoded(DiurnalShape.from_dict)
    flashes: Tuple[FlashCrowd, ...] = decoded(many(FlashCrowd.from_dict),
                                              default_factory=tuple)

    def rate(self, t: float) -> float:
        """Offered request rate (req/s) at simulated time ``t``."""
        rate = self.diurnal.rate(t)
        for flash in self.flashes:
            rate *= flash.factor(t)
        return rate

    def peak_bound(self) -> float:
        """A rate every instant stays at or below (thinning envelope).

        Conservative: the diurnal peak times the product of every
        flash multiplier.  Flash crowds rarely coincide, so the bound
        over-rejects a little; correctness only needs r(t) <= bound.
        """
        bound = self.diurnal.peak_rps
        for flash in self.flashes:
            bound *= flash.multiplier
        return bound
