"""Nonlinear baseband dynamical models of the loops.

Two ODE models, each exposing a right-hand side for the ODE engine:

* ``ClassicPhaseModel`` -- the 2-state phase-domain ODE (loop-filter
  integrator state and phase error) with the ideal-LPF assumption.
* ``DelayModel`` -- same states, but the LPFs reappear as a
  frequency-dependent phase lag inside the PD argument, which makes the
  phase-error rate implicit; the solver resolves it by plain fixed-point
  iteration, v <- g(v), with a bisection fallback.

The averaged beat-note model of the pull-in dynamics lives in
``analysis``, beside the closed form it integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import LoopParams, NumericFailure, bisect
from .detectors import PdCharacteristic


# fixed-point iterations before the bisection fallback, and the relative
# convergence tolerance of both
IMPLICIT_MAX_ITER = 50
IMPLICIT_REL_TOL = 1e-10


class ImplicitSolveError(NumericFailure):
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

