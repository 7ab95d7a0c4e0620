"""Phase-detector characteristics for all loop variants.

The baseband nonlinearities ``phi_*`` used by the ODE models (functions of
the phase error alone) and the small-signal PD gains.  The sample-level
PDs, functions of the actual branch signals, are branches of the signal
simulator's sample loop (``signal_sim``).  All are pure and stateless.

Tie-breaks are deterministic so tests are reproducible: the chopped-sine
branch boundaries take the left-branch limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .core import LoopVariant, PdFlavor, VariantTag, check_real, pd_period

HALF_PI = math.pi / 2.0


def phi_bpsk(theta_e: float, m: float = 1.0) -> float:
    """Conventional-BPSK PD characteristic (m^2/2)*sin(2*theta_e)."""
    return 0.5 * m * m * math.sin(2.0 * theta_e)


def _phi_wrapped(theta_e: float, period: float) -> float:
    """Modified-loop phase PD: theta_e wrapped into (-period/2, period/2]."""
    r = theta_e - period * math.floor(theta_e / period + 0.5)
    if r <= -period / 2.0:  # boundary lands on the left edge: take previous branch
        r += period
    return r


def phi_qpsk(theta_e: float, m: float = 1.0) -> float:
    """Conventional-QPSK chopped-sine PD characteristic.

    Equals 2m*sin(r) where r is theta_e reduced (pi/2)-periodically into
    (-pi/4, pi/4]; the half-open reduction realizes the left-branch-limit
    convention at the corners, where the amplitude peaks at sqrt(2)*m.
    """
    return 2.0 * m * math.sin(_phi_wrapped(theta_e, HALF_PI))


def _phi_sine_bpsk(theta_e: float, gain: float) -> float:
    """Modified-BPSK imaginary-part PD: gain*sin of the pi-wrapped phase."""
    return gain * math.sin(_phi_wrapped(theta_e, math.pi))


@dataclass(frozen=True)
class PdCharacteristic:
    """Baseband PD nonlinearity phi(theta_e) for one variant.

    ``kernel`` is the scalar form ``(scale, freq, fn)`` with phi(theta_e)
    == scale * fn(freq * theta_e), bound once at construction; it is not a
    field, so it stays out of ``__init__``, ``==``, ``hash`` and ``repr``.
    Conventional BPSK is ``(0.5*m*m, 2.0, math.sin)``, the floats of
    ``phi_bpsk`` with no Python frame; every other shape is
    ``(1.0, 1.0, fn)`` with ``fn`` its documented function, argument bound,
    and ``1.0 * v == v`` keeps it bit for bit.
    """

    variant: LoopVariant
    m: float = 1.0

    def __post_init__(self):
        check_real(self.m, "m")
        if self.m <= 0:
            raise ValueError(f"modulation amplitude must be > 0, got {self.m}")
        # Modified loops: the PD reports the wrapped phase error directly
        # (COMPLEX_PHASE) or its sine (COMPLEX_IMAG), periodized by the
        # data-estimate folding.  The modified-QPSK sine, 2m*sin of the
        # pi/2-wrapped phase, is the conventional chopped sine.
        if self.variant.tag is VariantTag.CONVENTIONAL_BPSK:
            kernel = (0.5 * self.m * self.m, 2.0, math.sin)
        elif self.variant.pd_flavor is PdFlavor.COMPLEX_PHASE:
            kernel = (1.0, 1.0, partial(_phi_wrapped, period=pd_period(self.variant)))
        elif self.variant.is_qpsk:
            kernel = (1.0, 1.0, partial(phi_qpsk, m=self.m))
        else:
            kernel = (1.0, 1.0, partial(_phi_sine_bpsk, gain=self.m))
        object.__setattr__(self, "kernel", kernel)

    def phi(self, theta_e: float) -> float:
        scale, freq, fn = self.kernel
        return scale * fn(freq * theta_e)

    @property
    def kd(self) -> float:
        """Small-signal PD gain (slope of phi at the lock point)."""
        tag, flavor = self.variant.tag, self.variant.pd_flavor
        if tag is VariantTag.CONVENTIONAL_BPSK:
            return self.m * self.m
        if tag is VariantTag.CONVENTIONAL_QPSK:
            return 2.0 * self.m
        if flavor is PdFlavor.COMPLEX_IMAG:
            return 2.0 * self.m if self.variant.is_qpsk else self.m
        return 1.0
