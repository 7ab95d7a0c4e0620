"""Numerical integration of the baseband models with event detection.

Provides a fixed-step classic RK4 and an adaptive Dormand-Prince RK45,
both with cubic-Hermite dense output used to localize cycle-slip events
inside a step.  On top of the integrator sit the two simulation-pitfall
harnesses: the step-size-sensitivity probe (a fixed-step lock verdict
that flips with h near a semistable cycle) and the phase-portrait
classifier that separates equilibrium-convergent from cycle-convergent
initial conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import LoopParams, wrap_phase
from .detectors import PdCharacteristic
from .baseband import ClassicPhaseModel

RhsFn = Callable[[float, np.ndarray], np.ndarray]


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
        if self.t_end <= 0 or self.h <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("t_end, h, rtol, atol must be > 0")
        if self.h_max < self.h_min:
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

    def resample(self, t_grid: np.ndarray) -> np.ndarray:
        """Linear-interpolated states on a uniform grid."""
        out = np.empty((len(t_grid), self.y.shape[1]))
        for j in range(self.y.shape[1]):
            out[:, j] = np.interp(t_grid, self.t, self.y[:, j])
        return out


_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk4_step(f: RhsFn, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite dense output between two accepted steps."""
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
    lo, hi = t0, t1
    g0 = _hermite(t0, y0[comp], f0[comp], t1, y1[comp], f1[comp], lo) - boundary
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gm = _hermite(t0, y0[comp], f0[comp], t1, y1[comp], f1[comp], mid) - boundary
        if (g0 <= 0) == (gm <= 0):
            lo, g0 = mid, gm
        else:
            hi = mid
    tc = 0.5 * (lo + hi)
    yc = _hermite(t0, y0, f0, t1, y1, f1, tc)
    return tc, yc


def _record_slips(watch, k_prev, t0, y0, f0, t1, y1, f1, events) -> int:
    """Append one localized ``cycle_slip`` event per cell boundary the
    accepted step [t0, t1] crossed; returns the cell the step ends in."""
    k_new = watch.cell(y1)
    step = 1 if k_new > k_prev else -1
    while k_new != k_prev:
        boundary = (k_prev + 0.5 * step) * watch.period
        tc, yc = _localize_slip(t0, y0, f0, t1, y1, f1, watch.component, boundary)
        events.append(Event("cycle_slip", tc, tuple(yc)))
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
    y = np.asarray(state0, dtype=float)
    f0 = np.asarray(rhs(0.0, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError("right-hand side not finite at the initial state")
    ts, ys = [0.0], [y.copy()]
    events: list[Event] = []

    k_prev = slip_watch.cell(y) if slip_watch else 0

    t = 0.0
    if config.method == "rk4":
        n = max(1, int(round(config.t_end / config.h)))
        for i in range(n):
            h = min(config.h, config.t_end - t)
            if h <= 0:
                break
            y1 = _rk4_step(rhs, t, y, h)
            if not np.all(np.isfinite(y1)):
                events.append(Event("blow_up", t + h, tuple(y)))
                break
            f1 = np.asarray(rhs(t + h, y1), dtype=float)
            if slip_watch:
                k_prev = _record_slips(slip_watch, k_prev, t, y, f0, t + h, y1, f1, events)
            t, y, f0 = t + h, y1, f1
            ts.append(t)
            ys.append(y.copy())
        return Trajectory(np.array(ts), np.array(ys), events)

    # Dormand-Prince 5(4), PI-free elementary controller
    h = min(config.h, config.h_max, config.t_end / 10.0)
    k = [np.zeros_like(y) for _ in range(7)]
    while t < config.t_end:
        h = min(h, config.t_end - t)
        k[0] = f0
        finite = True
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[i]):
                yi = yi + h * a * k[j]
            k[i] = np.asarray(rhs(t + _DP_C[i] * h, yi), dtype=float)
            if not np.all(np.isfinite(k[i])):
                finite = False
                break
        if finite:
            y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
            y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
            finite = bool(np.all(np.isfinite(y5)))
        if not finite:
            h *= 0.25
            if h < config.h_min:
                events.append(Event("blow_up", t, tuple(y)))
                break
            continue
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            f1 = k[6] if _DP_C[6] == 1.0 else np.asarray(rhs(t + h, y5), dtype=float)
            if slip_watch:
                k_prev = _record_slips(slip_watch, k_prev, t, y, f0, t + h, y5, f1, events)
            t, y, f0 = t + h, y5, f1
            ts.append(t)
            ys.append(y.copy())
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        h = min(max(h, config.h_min), config.h_max)
        if err > 1.0 and h <= config.h_min:
            raise StiffnessError(f"step size underflow at t={t:g}")
    return Trajectory(np.array(ts), np.array(ys), events)


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

    def rhs(t, y):
        return np.array(classic_rhs_np(model, y))

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


def classic_rhs_np(model: ClassicPhaseModel, y) -> tuple[float, float]:
    from .baseband import classic_rhs

    return classic_rhs(model, (float(y[0]), float(y[1])))


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

    def rhs(t, y):
        return np.array(classic_rhs_np(model, y))

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
