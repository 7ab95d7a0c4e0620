"""Numerical integration of the baseband models with event detection.

Provides a fixed-step classic RK4 and an adaptive Dormand-Prince RK45,
both with cubic-Hermite dense output used to localize cycle-slip events
inside a step.  On top of the integrator sit the two simulation-pitfall
harnesses: the step-size-sensitivity probe (a fixed-step lock verdict
that flips with h near a semistable cycle) and the phase-portrait
classifier that separates equilibrium-convergent from cycle-convergent
initial conditions.

The rhs contract: ``rhs(t, y)`` takes the time and the state as a tuple
of floats and returns the slope as any sequence of floats (a tuple, a
list or a 1-D ndarray) with one entry per state component.  The
integrator steps tuples of plain floats and builds the trajectory's
arrays once, at the end.  Costs: one rhs call at the start, then five
per RK4 step (four stages and the end slope for the dense output) and
six per attempted RK45 step (the last stage is the end slope); a
rejected RK45 attempt costs the same six calls as an accepted one.  On
the pitfall model, with Python 3.11 on a 2-core x86-64 host, an RK4 step
takes about 15 us and an accepted RK45 step about 41 us, of which the
model's rhs takes about 5 and 7 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import baseband
from .core import wrap_phase
from .detectors import PdCharacteristic
from .baseband import ClassicPhaseModel

RhsFn = Callable[[float, Sequence[float]], Sequence[float]]


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
    h_min: float = 1e-12
    h_max: float = math.inf
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not all(math.isfinite(v) for v in (self.t_end, self.h, self.rtol, self.atol)):
            raise ValueError("t_end, h, rtol, atol must be finite")
        if self.t_end <= 0 or self.h <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("t_end, h, rtol, atol must be > 0")
        if not self.h_min > 0:
            raise ValueError("h_min must be > 0")
        if not self.h_max >= self.h_min:
            raise ValueError("h_max must be >= h_min")


@dataclass(frozen=True)
class Event:
    kind: str           # "cycle_slip" | "blow_up"
    t: float
    state: tuple


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray                 # shape (n_points, dim)
    events: list[Event] = field(default_factory=list)
    rhs_calls: int = 0            # calls the integrator made
    rejected_steps: int = 0       # RK45 attempts not accepted

    def resample(self, t_grid: np.ndarray) -> np.ndarray:
        """Linear-interpolated states on a uniform grid."""
        out = np.empty((len(t_grid), self.y.shape[1]))
        for j in range(self.y.shape[1]):
            out[:, j] = np.interp(t_grid, self.t, self.y[:, j])
        return out


# Dormand-Prince 5(4): nodes, stage rows, 5th- and 4th-order weights
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _rk4_step(f: RhsFn, t: float, y: tuple, h: float) -> tuple:
    hh = 0.5 * h
    k1 = f(t, y)
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
    c, a, b5, b4 = _DP_C, _DP_A, _DP_B5, _DP_B4
    ha = h * a[1][0]
    k2 = f(t + c[1] * h, tuple([v + ha * p1 for v, p1 in zip(y, k1)]))
    if not _finite(k2):
        return (k1, k2), None, None
    ha, hb = h * a[2][0], h * a[2][1]
    k3 = f(t + c[2] * h, tuple([v + ha * p1 + hb * p2 for v, p1, p2 in zip(y, k1, k2)]))
    if not _finite(k3):
        return (k1, k2, k3), None, None
    ha, hb, hc = h * a[3][0], h * a[3][1], h * a[3][2]
    k4 = f(t + c[3] * h, tuple([v + ha * p1 + hb * p2 + hc * p3
                                for v, p1, p2, p3 in zip(y, k1, k2, k3)]))
    if not _finite(k4):
        return (k1, k2, k3, k4), None, None
    ha, hb, hc, hd = h * a[4][0], h * a[4][1], h * a[4][2], h * a[4][3]
    k5 = f(t + c[4] * h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4
                                for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]))
    if not _finite(k5):
        return (k1, k2, k3, k4, k5), None, None
    ha, hb, hc, hd, he = (h * a[5][0], h * a[5][1], h * a[5][2], h * a[5][3],
                          h * a[5][4])
    k6 = f(t + c[5] * h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5
                                for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)]))
    if not _finite(k6):
        return (k1, k2, k3, k4, k5, k6), None, None
    ha, hb, hc, hd, he, hf = (h * a[6][0], h * a[6][1], h * a[6][2], h * a[6][3],
                              h * a[6][4], h * a[6][5])
    k7 = f(t + c[6] * h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5 + hf * p6
                                for v, p1, p2, p3, p4, p5, p6
                                in zip(y, k1, k2, k3, k4, k5, k6)]))
    ks = (k1, k2, k3, k4, k5, k6, k7)
    if not _finite(k7):
        return ks, None, None
    y5 = tuple([v + h * (0.0 + b5[0] * p1 + b5[1] * p2 + b5[2] * p3 + b5[3] * p4
                         + b5[4] * p5 + b5[5] * p6 + b5[6] * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    if not _finite(y5):
        return ks, None, None
    y4 = tuple([v + h * (0.0 + b4[0] * p1 + b4[1] * p2 + b4[2] * p3 + b4[3] * p4
                         + b4[4] * p5 + b4[5] * p6 + b4[6] * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    return ks, y5, y4


def _rk4_steps(rhs, y, f0, config, events, counts):
    """Accepted fixed steps ``(t, y, slope)``; a non-finite state ends
    the run with a ``blow_up`` event at the end of the failed step.

    Each step evaluates its own first stage, so ``f0`` goes unused.
    ``counts`` holds the rhs calls and the rejected attempts so far.
    """
    t = 0.0
    for _ in range(max(1, int(round(config.t_end / config.h)))):
        h = min(config.h, config.t_end - t)
        if h <= 0:
            return
        y1 = _rk4_step(rhs, t, y, h)
        if not _finite(y1):
            counts[0] += 4
            events.append(Event("blow_up", t + h, y))
            return
        f1 = rhs(t + h, y1)
        counts[0] += 5
        t, y = t + h, y1
        yield t, y, f1


def _rk45_steps(rhs, y, f0, config, events, counts):
    """Accepted adaptive steps ``(t, y, slope)`` under the elementary
    controller.  A non-finite attempt quarters the step and a step below
    ``h_min`` ends the run with a ``blow_up`` event; an error estimate
    that stays above 1 (or is NaN) at ``h_min`` raises StiffnessError."""
    t_end, h_min, h_max = config.t_end, config.h_min, config.h_max
    rtol, atol = config.rtol, config.atol
    dim = len(y)
    t = 0.0
    h = min(config.h, h_max, t_end / 10.0)
    while t < t_end:
        h = min(h, t_end - t)
        ks, y5, y4 = _dp_attempt(rhs, t, y, f0, h)
        counts[0] += len(ks) - 1
        if y5 is None:
            counts[1] += 1
            h *= 0.25
            if h < h_min:
                events.append(Event("blow_up", t, y))
                return
            continue
        sq = 0.0
        for v, w, u in zip(y, y5, y4):
            e = (w - u) / (atol + rtol * max(abs(v), abs(w)))
            sq += e * e
        err = math.sqrt(sq / dim)
        if err <= 1.0:
            t, y, f0 = t + h, y5, ks[6]
            yield t, y, f0
        else:
            counts[1] += 1
        if err > 0:
            factor = 0.9 * err ** -0.2
        elif err == 0:
            factor = 5.0
        else:                       # NaN: shrink as for an infinite error
            factor = 0.2
        h = h * min(5.0, max(0.2, factor))
        h = min(max(h, h_min), h_max)
        if not err <= 1.0 and h <= h_min:
            raise StiffnessError(f"step size underflow at t={t:g}")


def _hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite dense output of one component between two accepted steps."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


@dataclass
class SlipWatch:
    """Cycle-slip detector on one phase component of the state."""

    component: int
    period: float

    def cell(self, y) -> int:
        """Index of the period-wide lock cell holding the watched component."""
        return math.floor(y[self.component] / self.period + 0.5)


def _localize_slip(t0, y0, f0, t1, y1, f1, comp, boundary):
    """Bisect the dense output for the crossing of a cell boundary."""
    a, fa, b, fb = y0[comp], f0[comp], y1[comp], f1[comp]
    lo, hi = t0, t1
    g0 = _hermite(t0, a, fa, t1, b, fb, lo) - boundary
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gm = _hermite(t0, a, fa, t1, b, fb, mid) - boundary
        if (g0 <= 0) == (gm <= 0):
            lo, g0 = mid, gm
        else:
            hi = mid
    tc = 0.5 * (lo + hi)
    yc = tuple([_hermite(t0, a, fa, t1, b, fb, tc) for a, fa, b, fb in zip(y0, f0, y1, f1)])
    return tc, yc


def _record_slips(watch, k_prev, t0, y0, f0, t1, y1, f1, events) -> int:
    """Append one localized ``cycle_slip`` event per cell boundary the
    accepted step [t0, t1] crossed; returns the cell the step ends in."""
    k_new = watch.cell(y1)
    step = 1 if k_new > k_prev else -1
    while k_new != k_prev:
        boundary = (k_prev + 0.5 * step) * watch.period
        tc, yc = _localize_slip(t0, y0, f0, t1, y1, f1, watch.component, boundary)
        events.append(Event("cycle_slip", tc, yc))
        k_prev += step
    return k_prev


def integrate(
    rhs: RhsFn,
    state0: Sequence[float],
    config: IntegratorConfig,
    slip_watch: Optional[SlipWatch] = None,
) -> Trajectory:
    """Integrate state0 to t_end, recording every accepted step.

    A non-finite state stops the run with a ``blow_up`` event; cycle
    slips, when watched, are localized on the dense output so their times
    are accurate to well under one step.
    """
    y = tuple([float(v) for v in state0])
    f0 = rhs(0.0, y)
    if len(f0) != len(y):
        raise ValueError(f"right-hand side has {len(f0)} components for a state of {len(y)}")
    if not _finite(f0):
        raise ValueError("right-hand side not finite at the initial state")
    ts, ys = [0.0], [y]
    events: list[Event] = []
    counts = [1, 0]                 # rhs calls, rejected attempts
    steps = _rk4_steps if config.method == "rk4" else _rk45_steps
    k_prev = slip_watch.cell(y) if slip_watch else 0
    t = 0.0
    for t1, y1, f1 in steps(rhs, y, f0, config, events, counts):
        if slip_watch:
            k_prev = _record_slips(slip_watch, k_prev, t, y, f0, t1, y1, f1, events)
        t, y, f0 = t1, y1, f1
        ts.append(t)
        ys.append(y)
    return Trajectory(np.array(ts), np.array(ys), events,
                      rhs_calls=counts[0], rejected_steps=counts[1])


# --- lock verdicts ----------------------------------------------------------

@dataclass(frozen=True)
class LockTolerances:
    tol_f: float          # rad/s on |theta_e'|
    tol_p: float = 0.05   # rad on wrapped |theta_e|
    tail: float = 0.2     # fraction of t_end examined

    @classmethod
    def for_model(cls, model: ClassicPhaseModel) -> "LockTolerances":
        p = model.params
        rate = p.omega_n if p.omega_n > 0 else p.k0
        return cls(tol_f=1e-3 * rate)


def lock_verdict(
    traj: Trajectory,
    rhs: RhsFn,
    period: float,
    tol: LockTolerances,
) -> bool:
    """Locked iff phase and rate stay inside tolerance over the tail."""
    if traj.events and traj.events[-1].kind == "blow_up":
        return False
    t_end = traj.t[-1]
    mask = traj.t >= (1.0 - tol.tail) * t_end
    if not np.any(mask):
        return False
    for ti, yi in zip(traj.t[mask], traj.y[mask]):
        theta = yi[1]
        if abs(wrap_phase(theta, period)) > tol.tol_p:
            return False
        rate = rhs(ti, yi)[1]
        if abs(rate) > tol.tol_f:
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
    tol: Optional[LockTolerances] = None,
) -> ProbeReport:
    """Fixed-step lock verdicts for each h, plus an adaptive reference.

    The reference verdict comes from RK45; a second RK45 run with
    ten-times-tightened tolerances flags the case solver-sensitive when
    the two adaptive verdicts disagree.
    """
    from .core import pd_period

    tol = tol or LockTolerances.for_model(model)
    period = pd_period(model.pd.variant)
    rhs = _phase_rhs(model)

    verdicts = []
    for h in h_list:
        traj = integrate(rhs, state0, IntegratorConfig(t_end=t_end, method="rk4", h=h))
        slips = sum(1 for e in traj.events if e.kind == "cycle_slip")
        verdicts.append(ProbeVerdict(h, lock_verdict(traj, rhs, period, tol), slips))

    ref = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-8, atol=1e-10)
    )
    ref_locked = lock_verdict(ref, rhs, period, tol)
    tight = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    )
    tight_locked = lock_verdict(tight, rhs, period, tol)
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


@dataclass
class Portrait:
    trajectories: list[ClassifiedTrajectory]
    stable_cycle_ic: Optional[tuple] = None
    unstable_cycle_ic: Optional[tuple] = None

    def labels(self) -> set:
        return {c.label for c in self.trajectories}


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


def _classify(
    traj: Trajectory, rhs: RhsFn, period: float, tol: LockTolerances
) -> str:
    if traj.events and traj.events[-1].kind == "blow_up":
        return "undecided"
    if lock_verdict(traj, rhs, period, tol):
        return "eq"
    t_end = traj.t[-1]
    t0 = (1.0 - tol.tail) * t_end
    grid = np.linspace(t0, t_end, 4096)
    tail = traj.resample(grid)
    theta = tail[:, 1]
    if abs(theta[-1] - theta[0]) < period:
        return "undecided"
    rate = np.array([rhs(ti, yi)[1] for ti, yi in zip(grid, tail)])
    return "cycle" if _autocorr_peak(rate, min_lag=8) > 0.99 else "undecided"


def phase_portrait(
    model: ClassicPhaseModel,
    initial_states: Sequence[Sequence[float]],
    t_end: float,
    tol: Optional[LockTolerances] = None,
    locate_cycles: bool = True,
    config: Optional[IntegratorConfig] = None,
) -> Portrait:
    """Integrate a grid of initial conditions and classify the limit sets.

    When both behaviors coexist, the stable/unstable cycle pair is
    bracketed by bisecting the straight line between one cycling and one
    locking initial condition: the boundary point rides the unstable
    cycle, while any cycling tail samples the stable one.
    """
    from .core import pd_period

    tol = tol or LockTolerances.for_model(model)
    period = pd_period(model.pd.variant)
    cfg = config or IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    rhs = _phase_rhs(model)

    out = []
    for s0 in initial_states:
        traj = integrate(rhs, s0, cfg)
        out.append(ClassifiedTrajectory(tuple(s0), _classify(traj, rhs, period, tol), traj))

    portrait = Portrait(out)
    if not locate_cycles:
        return portrait
    eqs = [c for c in out if c.label == "eq"]
    cycles = [c for c in out if c.label == "cycle"]
    if not eqs or not cycles:
        return portrait

    a = np.array(eqs[0].state0)       # locks
    b = np.array(cycles[0].state0)    # rides the cycle
    for _ in range(40):
        mid = 0.5 * (a + b)
        traj = integrate(rhs, mid, cfg)
        if _classify(traj, rhs, period, tol) == "eq":
            a = mid
        else:
            b = mid
    portrait.unstable_cycle_ic = tuple(0.5 * (a + b))
    tail_traj = cycles[0].trajectory
    portrait.stable_cycle_ic = tuple(tail_traj.y[-1])
    return portrait


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
    from .core import CONVENTIONAL_BPSK, LoopParams

    tau1 = gain / omega_n**2
    tau2 = 2.0 * zeta / omega_n
    params = LoopParams.from_gains(
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
