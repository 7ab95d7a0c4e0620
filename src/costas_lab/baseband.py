"""Nonlinear baseband dynamical models of the loops.

Three fidelities, each exposing a right-hand side for the ODE engine:

* ``ClassicPhaseModel`` -- the 2-state phase-domain ODE (loop-filter
  integrator state and phase error) with the ideal-LPF assumption.
* ``DelayModel`` -- same states, but the LPFs reappear as a
  frequency-dependent phase lag inside the PD argument, which makes the
  phase-error rate implicit; the solver resolves it by damped fixed-point
  iteration with a bisection fallback.
* the averaged model (``averaged_rhs``) -- the slow pull-in dynamics of
  the beat frequency driven by the DC component of the asymmetric PD beat
  waveform; valid between the lock-in and pull-in bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (
    _QPSK_BEAT_CONSTANT,
    RangeError,
    _derived,
    lock_in_range,
    total_phase_lag,
)
from .core import LoopParams, LoopVariant, PdFlavor, VariantTag, bisect
from .detectors import PdCharacteristic


# fixed-point iterations before the bisection fallback, and the relative
# convergence tolerance of both
IMPLICIT_MAX_ITER = 50
IMPLICIT_REL_TOL = 1e-10


class ImplicitSolveError(RuntimeError):
    """The delay model's implicit phase-rate equation failed to converge."""


@dataclass(frozen=True)
class ClassicPhaseModel:
    """Phase-domain model with PI loop filter, state (x_lf, theta_e).

    The constants ``classic_rhs`` needs are bound once, at construction,
    outside the dataclass fields: ``__init__``, ``==``, ``hash`` and
    ``repr`` see only ``params`` and ``pd``.
    """

    params: LoopParams
    pd: PdCharacteristic

    def __post_init__(self):
        p = self.params
        object.__setattr__(self, "_rhs_consts",
                           (p.delta_omega0, p.k0, p.tau1, p.tau2 / p.tau1, *self.pd.kernel))

    def equilibrium_x(self) -> float:
        """Integrator charge that cancels the detuning at lock."""
        return self.params.delta_omega0 * self.params.tau1 / self.params.k0


def classic_rhs(model: ClassicPhaseModel, t: float, state) -> tuple[float, float]:
    """Right-hand side of the classic 2-state phase model, in the
    integrator's ``rhs(t, y)`` form after the model: the model is
    autonomous, so ``t`` is not read.  ``ode.integrate`` runs this rhs on
    steppers that repeat its arithmetic (``ode._STAGE``): change both.

    x' = phi(theta_e);  theta_e' = dw0 - K0*(x/tau1 + (tau2/tau1)*phi).
    """
    x, theta_e = state
    dw0, k0, tau1, ratio, scale, freq, fn = model._rhs_consts
    phi = scale * fn(freq * theta_e)
    return phi, dw0 - k0 * (x / tau1 + ratio * phi)


@dataclass(frozen=True)
class DelayModel:
    """Phase model with the LPFs folded in as a phase-lag block."""

    params: LoopParams
    pd: PdCharacteristic

    def __post_init__(self):
        if self.pd.variant.is_modified:
            raise ValueError("the delay model applies to the conventional loops only: "
                             "the modified loops have no LPF")
        if self.params.omega3 is None:
            raise ValueError("delay model needs the LPF corner omega3")


def _delay_phi(model: DelayModel, theta_e: float, dtheta: float) -> float:
    lag = -math.atan(dtheta / model.params.omega3)
    return model.pd.phi(theta_e + lag)


def delay_rhs(model: DelayModel, state, prev_dtheta: float) -> tuple[float, float]:
    """Resolve the implicit phase-error rate of the delay model.

    theta_e' = dw0 - K0*(x/tau1 + (tau2/tau1)*phi(theta_e + lag(theta_e')))
    is solved for theta_e' by fixed-point iteration seeded with the
    previous step's rate, until a step moves it by at most IMPLICIT_REL_TOL
    of max(|rate|, 1).  After IMPLICIT_MAX_ITER steps the root is bracketed
    (the right side is bounded by the PD amplitude), :func:`core.bisect`
    narrows the bracket to that width, and its midpoint is the rate.
    """
    if not math.isfinite(prev_dtheta):
        raise ImplicitSolveError("seed rate is not finite")
    x, theta_e = state
    p = model.params
    base = p.delta_omega0 - p.k0 * x / p.tau1
    gain = p.k0 * p.tau2 / p.tau1

    def g(v: float) -> float:
        return base - gain * _delay_phi(model, theta_e, v)

    v = prev_dtheta
    for _ in range(IMPLICIT_MAX_ITER):
        v_next = g(v)
        if abs(v_next - v) <= IMPLICIT_REL_TOL * max(abs(v_next), 1.0):
            return _delay_phi(model, theta_e, v_next), v_next
        v = v_next

    # amplitude bound of phi gives a hard bracket for the root of g(v) - v
    amp = 2.0 * model.pd.m * max(1.0, model.pd.m)
    lo, hi = base - gain * amp, base + gain * amp
    flo, fhi = g(lo) - lo, g(hi) - hi
    if flo == 0.0:
        v = lo
    elif fhi == 0.0:
        v = hi
    elif flo * fhi > 0.0:
        raise ImplicitSolveError("implicit rate equation lost its bracket")
    else:
        lo, hi = bisect(lambda v: flo * (g(v) - v) > 0.0, lo, hi,
                        lambda lo, hi: hi - lo <= IMPLICIT_REL_TOL * max(abs(hi), 1.0))
        v = 0.5 * (lo + hi)
    return _delay_phi(model, theta_e, v), v


def averaged_ud(
    variant: LoopVariant, delta_omega: float, params: LoopParams
) -> float:
    """DC component of the PD output during a beat, volts.

    Conventional loops carry the cos(phi_tot) factor that reverses
    polarity at the pull-in limit; the modified loops have no filter lag
    in the PD path, hence no cosine and no polarity reversal.  The
    constants hold for the default PD flavors: the sine-shaped
    COMPLEX_IMAG flavor raises RangeError.
    """
    if variant.pd_flavor is PdFlavor.COMPLEX_IMAG:
        raise RangeError("the averaged model takes the default PD flavors only, "
                         f"not {variant.pd_flavor.value}")
    if delta_omega == 0:
        raise RangeError("averaged PD output is singular at zero beat frequency")
    p = params
    kh = p.k_h
    tag = variant.tag
    if tag is VariantTag.MODIFIED_BPSK:
        return math.pi**2 * p.kd * p.k0 * kh / (8.0 * delta_omega)
    if tag is VariantTag.MODIFIED_QPSK:
        return math.pi**2 * p.kd**2 * p.k0 * kh / (64.0 * delta_omega)
    cos_tot = math.cos(total_phase_lag(p, variant, abs(delta_omega)))
    if tag is VariantTag.CONVENTIONAL_QPSK:
        return _QPSK_BEAT_CONSTANT * p.k0 * p.kd**2 * kh * cos_tot / delta_omega
    return p.k0 * p.kd**2 * kh * cos_tot / (math.pi**2 * delta_omega)


def averaged_rhs(params: LoopParams, variant: LoopVariant, delta_omega: float) -> float:
    """d(delta_omega)/dt of the averaged pull-in dynamics."""
    if delta_omega <= 0:
        raise RangeError("averaged model is defined for delta_omega > 0")
    return -params.k0 * averaged_ud(variant, delta_omega, params) / params.tau1


def averaged_pull_in_time_numeric(
    params: LoopParams, variant: LoopVariant, delta_omega0: float
) -> float:
    """Integrate the averaged ODE from the initial offset down to the
    lock-in range, without the straight-line cosine approximation.

    Fourth-order fixed-step integration in the time domain would stall
    near the pull-in limit, so integrate the separated form
    dt = -d(dw)/rhs(dw) over dw with Simpson's rule (20,000 intervals)
    instead.  DesignError when omega_n is out of the float range
    (:func:`analysis._derived`): gains that underflow it to 0.0 leave no
    lock-in range to integrate down to.
    """
    _derived("omega_n", params.omega_n)
    dw_l = lock_in_range(params, variant)
    if delta_omega0 <= dw_l:
        raise RangeError("offset already inside the lock-in range")
    n_steps = 20000
    h = (delta_omega0 - dw_l) / n_steps
    total = 0.0
    for k in range(n_steps + 1):
        dw = dw_l + k * h
        w = 1.0 if k in (0, n_steps) else (4.0 if k % 2 else 2.0)
        total += w / (-averaged_rhs(params, variant, dw))
    return total * h / 3.0
