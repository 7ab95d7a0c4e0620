"""Numerical integration of the baseband models.

Provides a fixed-step classic RK4 and an adaptive Dormand-Prince RK45
that record every accepted step; a run that reaches a non-finite state
ends early, flagged as blown up.  Cycle slips (the probe's and the
phase/delay ``summary.json``'s ``cycle_slips``) are counted on the
recorded phase error by :func:`core.count_cycle_slips`: one per
lock-cell boundary crossed between consecutive accepted steps.  On top
of the integrator sit the two simulation-pitfall harnesses: the
step-size-sensitivity probe (a fixed-step lock verdict that flips with h
near a semistable cycle) and the phase-portrait classifier that
separates equilibrium-convergent from cycle-convergent initial
conditions.

The rhs contract: ``rhs(t, y)`` takes the time and the state as a tuple
of floats and returns the slope as any sequence of floats (a tuple, a
list or a 1-D ndarray) with one entry per state component.  The
integrator steps tuples of plain floats and builds the trajectory's
arrays once, at the end.  Costs: one rhs call at the start, then four
per RK4 step (three stages and the end slope, which is also the next
step's first stage: first same as last) and six per attempted RK45 step
(the last stage is the end slope); a rejected RK45 attempt costs the
same six calls as an accepted one.  An rhs that carries state from call
to call, as the delay model's rate seed does, sees exactly this call
sequence.  On the pitfall model, with Python 3.11 on a 2-core x86-64
host, an RK4 step takes about 11 us and an accepted RK45 step about
35 us, of which ``classic_rhs`` takes about 0.6 us per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import baseband
from .core import CONVENTIONAL_BPSK, LoopParams, LoopVariant, pd_period, wrap_phase
from .core import count_cycle_slips
from .detectors import PdCharacteristic
from .baseband import ClassicPhaseModel

RhsFn = Callable[[float, Sequence[float]], Sequence[float]]


H_MIN = 1e-12   # smallest RK45 step; below it a run ends or raises


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration method and controls.

    ``h`` is the fixed RK4 step; the adaptive controls apply to RK45.
    """

    t_end: float
    method: str = "rk45"
    h: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not all(math.isfinite(v) for v in (self.t_end, self.h, self.rtol, self.atol)):
            raise ValueError("t_end, h, rtol, atol must be finite")
        if self.t_end <= 0 or self.h <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("t_end, h, rtol, atol must be > 0")


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray                 # shape (n_points, dim)
    blown_up: bool = False        # a non-finite state ended the run early
    rhs_calls: int = 0            # calls the integrator made
    rejected_steps: int = 0       # RK45 attempts not accepted

    def resample(self, t_grid: np.ndarray) -> np.ndarray:
        """Linear-interpolated states on a uniform grid."""
        out = np.empty((len(t_grid), self.y.shape[1]))
        for j in range(self.y.shape[1]):
            out[:, j] = np.interp(t_grid, self.t, self.y[:, j])
        return out


# Dormand-Prince 5(4) as module constants: nodes C2..C5 (C6 = C7 = 1),
# stage coefficients Aij, 5th-order weights Bj (the last stage row) and
# 4th-order weights Ej.  Zero entries are kept so that every sum has the
# same terms, in the same order, as the tableau's rows.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = (35 / 384, 0.0, 500 / 1113, 125 / 192,
                                     -2187 / 6784, 11 / 84, 0.0)
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                                     -92097 / 339200, 187 / 2100, 1 / 40)


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _rk4_step(f: RhsFn, t: float, y: tuple, k1, h: float) -> tuple:
    """One classic RK4 step from (t, y), whose slope is k1."""
    hh = 0.5 * h
    k2 = f(t + hh, tuple([v + hh * p for v, p in zip(y, k1)]))
    k3 = f(t + hh, tuple([v + hh * p for v, p in zip(y, k2)]))
    k4 = f(t + h, tuple([v + h * p for v, p in zip(y, k3)]))
    h6 = h / 6.0
    return tuple([v + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                  for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])


def _dp_attempt(f: RhsFn, t: float, y: tuple, k1, h: float):
    """One Dormand-Prince attempt from (t, y), whose slope is k1.

    Returns ``(slopes, y5, y4)``.  The slopes stop at the first
    non-finite one; ``y5`` and ``y4`` are then None, as ``y5`` is when
    it is not finite.  Each stage state is ``y + sum((h*a)*k)`` and each
    solution ``y + h*sum(b*k)``, summed term by term, left to right,
    zero coefficients included.
    """
    isfinite = math.isfinite
    ha = h * _A21
    k2 = f(t + _C2 * h, tuple([v + ha * p1 for v, p1 in zip(y, k1)]))
    if not all(map(isfinite, k2)):
        return (k1, k2), None, None
    ha, hb = h * _A31, h * _A32
    k3 = f(t + _C3 * h, tuple([v + ha * p1 + hb * p2 for v, p1, p2 in zip(y, k1, k2)]))
    if not all(map(isfinite, k3)):
        return (k1, k2, k3), None, None
    ha, hb, hc = h * _A41, h * _A42, h * _A43
    k4 = f(t + _C4 * h, tuple([v + ha * p1 + hb * p2 + hc * p3
                               for v, p1, p2, p3 in zip(y, k1, k2, k3)]))
    if not all(map(isfinite, k4)):
        return (k1, k2, k3, k4), None, None
    ha, hb, hc, hd = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = f(t + _C5 * h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4
                               for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]))
    if not all(map(isfinite, k5)):
        return (k1, k2, k3, k4, k5), None, None
    ha, hb, hc, hd, he = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = f(t + h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5
                         for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)]))
    if not all(map(isfinite, k6)):
        return (k1, k2, k3, k4, k5, k6), None, None
    ha, hb, hc, hd, he, hf = h * _B1, h * _B2, h * _B3, h * _B4, h * _B5, h * _B6
    k7 = f(t + h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5 + hf * p6
                         for v, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)]))
    ks = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(isfinite, k7)):
        return ks, None, None
    y5 = tuple([v + h * (0.0 + _B1 * p1 + _B2 * p2 + _B3 * p3 + _B4 * p4
                         + _B5 * p5 + _B6 * p6 + _B7 * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    if not all(map(isfinite, y5)):
        return ks, None, None
    y4 = tuple([v + h * (0.0 + _E1 * p1 + _E2 * p2 + _E3 * p3 + _E4 * p4
                         + _E5 * p5 + _E6 * p6 + _E7 * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    return ks, y5, y4


def _rk4_steps(rhs, y, f0, config, counts):
    """Accepted fixed steps ``(t, y)``; a non-finite state ends the run,
    blown up.

    A step's first stage is the previous step's end slope (``f0`` for the
    first step): first same as last.  ``counts`` holds the rhs calls, the
    rejected attempts and whether the run blew up.
    """
    t = 0.0
    for _ in range(max(1, int(round(config.t_end / config.h)))):
        h = min(config.h, config.t_end - t)
        if h <= 0:
            return
        y1 = _rk4_step(rhs, t, y, f0, h)
        if not _finite(y1):
            counts[0] += 3
            counts[2] = True
            return
        f0 = rhs(t + h, y1)
        counts[0] += 4
        t, y = t + h, y1
        yield t, y


def _rk45_steps(rhs, y, f0, config, counts):
    """Accepted adaptive steps ``(t, y)`` under the elementary controller.
    A non-finite attempt quarters the step and a step below :data:`H_MIN`
    ends the run, blown up; an error estimate that stays above 1 (or is
    NaN) at :data:`H_MIN` raises StiffnessError."""
    t_end = config.t_end
    rtol, atol = config.rtol, config.atol
    dim = len(y)
    t = 0.0
    h = min(config.h, t_end / 10.0)
    while t < t_end:
        h = min(h, t_end - t)
        ks, y5, y4 = _dp_attempt(rhs, t, y, f0, h)
        counts[0] += len(ks) - 1
        if y5 is None:
            counts[1] += 1
            h *= 0.25
            if h < H_MIN:
                counts[2] = True
                return
            continue
        sq = 0.0
        for v, w, u in zip(y, y5, y4):
            e = (w - u) / (atol + rtol * max(abs(v), abs(w)))
            sq += e * e
        err = math.sqrt(sq / dim)
        if err <= 1.0:
            t, y, f0 = t + h, y5, ks[6]
            yield t, y
        else:
            counts[1] += 1
        if err > 0:
            factor = 0.9 * err ** -0.2
        elif err == 0:
            factor = 5.0
        else:                       # NaN: shrink as for an infinite error
            factor = 0.2
        h = h * min(5.0, max(0.2, factor))
        h = max(h, H_MIN)
        if not err <= 1.0 and h <= H_MIN:
            raise StiffnessError(f"step size underflow at t={t:g}")


def integrate(rhs: RhsFn, state0: Sequence[float], config: IntegratorConfig) -> Trajectory:
    """Integrate state0 to t_end, recording every accepted step.

    A non-finite state stops the run early with ``blown_up`` set.
    """
    y = tuple([float(v) for v in state0])
    f0 = rhs(0.0, y)
    if len(f0) != len(y):
        raise ValueError(f"right-hand side has {len(f0)} components for a state of {len(y)}")
    if not _finite(f0):
        raise ValueError("right-hand side not finite at the initial state")
    ts, ys = [0.0], [y]
    counts = [1, 0, False]          # rhs calls, rejected attempts, blown up
    steps = _rk4_steps if config.method == "rk4" else _rk45_steps
    for t, y in steps(rhs, y, f0, config, counts):
        ts.append(t)
        ys.append(y)
    return Trajectory(np.array(ts), np.array(ys), blown_up=counts[2],
                      rhs_calls=counts[0], rejected_steps=counts[1])


# --- lock verdicts ----------------------------------------------------------

LOCK_TOL_P = 0.05   # rad on wrapped |theta_e|
LOCK_TAIL = 0.2     # fraction of t_end examined


def lock_verdict(
    traj: Trajectory,
    rhs: RhsFn,
    params: LoopParams,
    variant: LoopVariant,
) -> bool:
    """Locked iff phase and rate stay inside tolerance over the tail: the
    phase within :data:`LOCK_TOL_P` of a lock point (a multiple of the PD
    period), the rate within 1e-3 * omega_n (1e-3 * K0 when omega_n is 0)."""
    if traj.blown_up:
        return False
    period = pd_period(variant)
    tol_f = 1e-3 * (params.omega_n if params.omega_n > 0 else params.k0)
    t_end = traj.t[-1]
    mask = traj.t >= (1.0 - LOCK_TAIL) * t_end
    if not np.any(mask):
        return False
    for ti, yi in zip(traj.t[mask], traj.y[mask]):
        theta = yi[1]
        if abs(wrap_phase(theta, period)) > LOCK_TOL_P:
            return False
        rate = rhs(ti, yi)[1]
        if abs(rate) > tol_f:
            return False
    return True


# --- step-size sensitivity probe --------------------------------------------

@dataclass
class ProbeVerdict:
    h: float
    locked: bool
    cycle_slips: int


@dataclass
class ProbeReport:
    verdicts: list[ProbeVerdict]
    reference_locked: bool
    solver_sensitive: bool

    def locked_at(self, h: float) -> bool:
        for v in self.verdicts:
            if math.isclose(v.h, h):
                return v.locked
        raise KeyError(f"no verdict recorded for h={h!r}")


def step_sensitivity_probe(
    model: ClassicPhaseModel,
    state0: Sequence[float],
    h_list: Sequence[float],
    t_end: float,
) -> ProbeReport:
    """Fixed-step lock verdicts and cycle-slip counts for each h, plus an
    adaptive reference.

    The reference verdict comes from RK45; a second RK45 run with
    ten-times-tightened tolerances flags the case solver-sensitive when
    the two adaptive verdicts disagree.
    """
    params, variant = model.params, model.pd.variant
    rhs = _phase_rhs(model)

    verdicts = []
    for h in h_list:
        traj = integrate(rhs, state0, IntegratorConfig(t_end=t_end, method="rk4", h=h))
        slips = count_cycle_slips(traj.y[:, 1], pd_period(variant))
        verdicts.append(ProbeVerdict(h, lock_verdict(traj, rhs, params, variant), slips))

    ref = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-8, atol=1e-10)
    )
    ref_locked = lock_verdict(ref, rhs, params, variant)
    tight = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    )
    tight_locked = lock_verdict(tight, rhs, params, variant)
    return ProbeReport(
        verdicts=verdicts,
        reference_locked=ref_locked,
        solver_sensitive=ref_locked != tight_locked,
    )


def _phase_rhs(model: ClassicPhaseModel) -> RhsFn:
    """The classic phase model as an rhs; ``baseband.classic_rhs`` is looked
    up on every call, so a rebinding of it sees every call."""

    def rhs(t, y):
        return baseband.classic_rhs(model, y)

    return rhs


# --- phase portrait ----------------------------------------------------------

@dataclass
class ClassifiedTrajectory:
    state0: tuple
    label: str           # "eq" | "cycle" | "undecided"
    trajectory: Trajectory


def _autocorr_peak(x: np.ndarray, min_lag: int) -> float:
    """Largest normalized autocorrelation over lags in [min_lag, n/2]."""
    x = x - x.mean()
    n = len(x)
    if float(np.dot(x, x)) <= 0:
        return 0.0
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, nfft)
    raw = np.fft.irfft(spec * np.conj(spec), nfft)[: n // 2 + 1]
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    best = 0.0
    for lag in range(min_lag, n // 2 + 1):
        ea = csum[n - lag]                # energy of x[:n-lag]
        eb = csum[n] - csum[lag]          # energy of x[lag:]
        if ea <= 0 or eb <= 0:
            continue
        best = max(best, float(raw[lag]) / math.sqrt(ea * eb))
    return best


def _classify(traj: Trajectory, rhs: RhsFn, params: LoopParams, variant: LoopVariant) -> str:
    if traj.blown_up:
        return "undecided"
    if lock_verdict(traj, rhs, params, variant):
        return "eq"
    t_end = traj.t[-1]
    t0 = (1.0 - LOCK_TAIL) * t_end
    grid = np.linspace(t0, t_end, 4096)
    tail = traj.resample(grid)
    theta = tail[:, 1]
    if abs(theta[-1] - theta[0]) < pd_period(variant):
        return "undecided"
    rate = np.array([rhs(ti, yi)[1] for ti, yi in zip(grid, tail)])
    return "cycle" if _autocorr_peak(rate, min_lag=8) > 0.99 else "undecided"


def phase_portrait(
    model: ClassicPhaseModel,
    initial_states: Sequence[Sequence[float]],
    t_end: float,
) -> list[ClassifiedTrajectory]:
    """Integrate each initial condition and classify its limit set: "eq"
    (locks), "cycle" (rides a periodic cycle-slipping orbit) or
    "undecided"."""
    params, variant = model.params, model.pd.variant
    cfg = IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    rhs = _phase_rhs(model)

    out = []
    for s0 in initial_states:
        traj = integrate(rhs, s0, cfg)
        out.append(ClassifiedTrajectory(tuple(s0), _classify(traj, rhs, params, variant), traj))
    return out


# --- pitfall reproduction parameters ----------------------------------------

def pitfall_example_model(
    delta_omega0: float = 89.45,
    gain: float = 1000.0,
    zeta: float = 0.10,
    omega_n: float = 12.0,
) -> ClassicPhaseModel:
    """Classic BPSK phase model for the step-size-sensitivity pitfall.

    A small detuning against a slowly-bleeding integrator charge makes
    the verdict of a fixed-step run depend on the step: the loop-filter
    time constants are calibrated so the true spin-down from the stored
    initial state outlasts the observation window, while a coarse step,
    sampling the beat at under four points per turn, shortcuts the
    descent and reports lock early.  Measured with the default
    tolerances, the h=2e-2 run is fully in tolerance from t=83.3 s while
    the 1e-2, 1e-3, and tight-adaptive runs stay out until
    t=92.8..93.7 s, so any verdict window inside [88, 92.8] flips.
    """
    tau1 = gain / omega_n**2
    tau2 = 2.0 * zeta / omega_n
    params = LoopParams(
        omega1=delta_omega0,
        omega_free=0.0,
        k0=gain,
        kd=1.0,
        tau1=tau1,
        tau2=tau2,
    )
    return ClassicPhaseModel(params=params, pd=PdCharacteristic(CONVENTIONAL_BPSK, m=1.0))


PITFALL_STATE0 = (0.0125, -3.4035)   # (x_lf, theta_e) from the demonstration
PITFALL_H_LIST = (2e-2, 1e-2, 1e-3)  # probed fixed steps
PITFALL_T_END = 110.0                # verdict window [88, 110] splits the capture times
