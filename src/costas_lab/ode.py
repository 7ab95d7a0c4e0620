"""Numerical integration of the baseband models.

Provides a fixed-step classic RK4 and an adaptive Dormand-Prince RK45
that record every accepted step and, at each, the rate theta_e' of its
end slope (``Trajectory.dtheta``); a run that reaches a non-finite state
ends early, flagged as blown up.  Cycle slips (the probe's and the
phase/delay ``summary.json``'s ``cycle_slips``) are counted on the
recorded phase error by :func:`core.count_cycle_slips`: one per
lock-cell boundary crossed between consecutive accepted steps.  On top
of the integrator sit the lock verdict and the two simulation-pitfall
harnesses: the step-size-sensitivity probe (a fixed-step lock verdict
that flips with h near a semistable cycle) and the phase-portrait
classifier that separates equilibrium-convergent from cycle-convergent
initial conditions.  They read the recorded phase error and rate, and
call no rhs.

The rhs contract: the state has two components, (x_lf, theta_e) in every
model here.  ``rhs(t, y)`` takes the time and the state as a tuple of
two floats and returns the slope as any sequence of two floats (a tuple,
a list or a 1-D ndarray).  The integrator steps the two components as
plain floats, each stage written out per component.  RK4 takes its step
times from one cumsum and stores state k in row k of the trajectory;
RK45 appends its accepted steps to ``array('d')`` buffers.  Costs: one
rhs call at the start, then four per RK4 step (three stages and the end
slope, which is also the next step's first stage: first same as last)
and six per attempted RK45 step (the last stage is the end slope).  A
rejected RK45 attempt costs the same six calls as an accepted one,
unless a stage's rhs call raises: then it counts only the calls it
made.  ``rhs_calls`` counts exactly the calls an rhs sees, so one that
carries state from call to call, as the delay model's rate seed does,
sees this call sequence.  An rhs call after the first that raises
ArithmeticError or ValueError (``math.sin(inf)``: a state that left the
float range) counts as a non-finite slope: RK4 ends the run blown up,
RK45 rejects the attempt and quarters the step.  At a non-finite state
an rhs must return a non-finite slope or raise one of those, as every
PD function and the delay model's rhs do: RK45 sees a non-finite stage
only through its error estimate.  RK4 takes ceil(t_end/h) steps, each h
but at most the last, which is the time left where less than h is left
and then ends exactly on t_end; a run whose last step is a full h ends
at the sum of its steps, which may miss t_end by rounding.
A run takes at most :data:`MAX_STEPS` RK4 steps or RK45 attempts.

The probe, the portrait and the CLI's phase fidelity build one phase rhs
per run, ``types.MethodType(baseband.classic_rhs, model)``.  When its
function is the ``classic_rhs`` imported here and its object a
``ClassicPhaseModel``, ``integrate`` runs it on the generic stepper
rebuilt from its source with each stage's slope written out on
``model._rhs_consts`` (:func:`_inline_phase`): the same trajectory,
counters and errors, with one Python call of ``classic_rhs``.  Any other
rhs, a rebinding of ``baseband.classic_rhs`` made before the run (where
a tracer counts the phase rhs) included, runs on the generic steppers
and sees every call; ``rhs_calls`` counts slope evaluations on both
paths.  Each method has one non-finite rule on both paths and tests no
slope or state as it goes: an RK4 run, or an RK45 attempt, makes every
call up to one that raises.  After an RK4 run, ``integrate`` ends the
trajectory before its first non-finite state, found in one pass.  A
non-finite RK45 slope or solution leaves the attempt's error estimate
NaN or inf, and only then does it test them, to tell a non-finite
attempt (rejected, the step quartered) from an error estimate that
overflowed.  On the pitfall model (Python 3.11, shared 2-core x86-64,
best of 15 runs in each of two processes) an RK4 step takes about
0.7 us and an accepted RK45 step 3.1-3.4 us (rtol 1e-9 and 1e-8).
"""

from __future__ import annotations

import ast
import functools
import math
from array import array
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Sequence

import numpy as np

from . import baseband
from .core import CONVENTIONAL_BPSK, LoopParams, LoopVariant, NumericFailure, pd_period
from .core import count_cycle_slips, placed, rebuild, wrap_phase
from .detectors import PdCharacteristic
from .baseband import ClassicPhaseModel

RhsFn = Callable[[float, Sequence[float]], Sequence[float]]


H_MIN = 1e-12   # smallest RK45 step; below it a run ends or raises

# Most steps one run may take: RK4 steps (an RK4 config over it is refused
# before it runs) or RK45 attempts (exceeding it raises StiffnessError).
# An RK4 run peaks at about 34 B of traced memory per step (the
# trajectory's times, states and rates, and its finiteness scan) and an RK45 run at about 49 B per accepted step (four array('d')
# buffers and the trajectory's state array): near 34 and 49 MB at the
# cap, with a trajectory.csv (about 57 B per row) near 60 MB.  That is 9 times the
# longest run the tests or the benchmark make (the probe's 110,000 RK4
# steps at h = 1e-3; the longest RK45 run makes 37,703 attempts).
MAX_STEPS = 1_000_000


class StiffnessError(NumericFailure):
    """RK45 gave up before t_end: its step size underflowed, or it made more
    than :data:`MAX_STEPS` attempts."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration method and controls.

    ``h`` is the fixed RK4 step; the adaptive controls apply to RK45.  An
    RK4 config that needs more than :data:`MAX_STEPS` steps raises
    ValueError.
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
        if self.method == "rk4":
            _rk4_step_count(self.t_end, self.h)


@dataclass
class Trajectory:
    """The recorded states and, at each, theta_e' of the end slope that the
    next step reuses as its first stage: for RK4 the rhs at the state, bit
    for bit (NaN where that call raised), for RK45 the first-same-as-last
    slope at stage 7's state, which equals the recorded solution only to
    rounding."""

    t: np.ndarray
    y: np.ndarray                 # shape (n_points, 2)
    dtheta: np.ndarray            # theta_e' at each recorded state
    blown_up: bool = False        # a non-finite state ended the run early
    rhs_calls: int = 0            # slope evaluations the integrator made
    rejected_steps: int = 0       # RK45 attempts not accepted


# The Dormand-Prince 5(4) tableau, in the order _rk45_steps binds it to
# locals, once per run: nodes C2..C5 (C6 = C7 = 1), the rows Aij of stages
# 2..6, the 5th-order weights Bj (stage 7's row) and the 4th-order weights
# Ej.  The stage sums keep every term of their rows, B2 = 0 in stage 7's
# included: a stage state starts from y, which may be -0.0, and y + (-0.0)
# differs from y + 0.0 there.  The solution sums leave out their zero
# weights (b2 = b7 = e2 = 0): each starts 0.0 + ..., so no partial sum is
# -0.0, and adding a zero to it is exact.
_TABLEAU = (
    1 / 5, 3 / 10, 4 / 5, 8 / 9,
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,                 # b7 = 0
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40,  # e2 = 0
)

# What Python's math functions raise where IEEE arithmetic gives inf or NaN
# (math.sin(inf), math.floor(inf)): an rhs that raises one at a stage, or
# at the initial state, is taken to have returned a non-finite slope there.
_FLOAT_ERRORS = (ArithmeticError, ValueError)

# classic_rhs as imported: integrate computes its slope inline when bound
_CLASSIC_RHS = baseband.classic_rhs


def _rk4_step_count(t_end: float, h: float) -> int:
    """Steps of an RK4 run: ``ceil(t_end / h)``, less a relative 1e-9 so
    that a multiple whose quotient rounds up (2.1/0.15 is
    14.000000000000002) keeps its count, and at least one.  A count above
    :data:`MAX_STEPS` raises ValueError."""
    n = t_end / h * (1.0 - 1e-9)
    if not n <= MAX_STEPS:
        raise ValueError(f"t_end/h = {t_end / h:.6g} RK4 steps, above the cap "
                         f"of {MAX_STEPS} (ode.MAX_STEPS)")
    return max(1, math.ceil(n))


def _rk4_grid(t_end: float, h0: float):
    """An RK4 run's step times and its ``(step indices, h)`` segments: the
    steps' times are one cumsum of h0, bit for bit ``t = t + h0``, but at
    most the last step, which is the time left where less than h0 is left
    and then ends exactly on t_end.  The count's 1e-9 margin leaves every
    earlier step at least that fraction of t_end short of it, far more than
    the cumsum's rounding over :data:`MAX_STEPS` steps."""
    n = _rk4_step_count(t_end, h0)
    ts = np.full(n + 1, h0)
    ts[0] = 0.0
    np.cumsum(ts, out=ts)
    r = t_end - float(ts[n - 1])
    if r >= h0:
        return ts, [(range(1, n + 1), h0)]
    ts[n] = ts[n - 1] + r
    return ts, [(range(1, n), h0), (range(n, n + 1), r)]


def _rk4_steps(rhs, a, b, p1, q1, segments, ts, xs, ths, qs):
    """Fixed steps from (0, (a, b)), whose slope is (p1, q1), over the
    segments of :func:`_rk4_grid`, step k ending at ``ts[k]`` with its
    state in ``xs[k]`` and ``ths[k]`` and its end slope's theta_e' in
    ``qs[k]``; returns ``(rhs calls, blown up)``, and the run wrote
    ``calls // 4 + 1`` states.  A step's first stage is the previous end
    slope (first same as last).  An rhs call that raises one of
    :data:`_FLOAT_ERRORS` ends the run, blown up, with the calls made; a
    non-finite state does not: ``integrate`` ends the trajectory there
    after the run.  The build of :func:`_inline_phase` changes only the
    stage calls, which read no step time."""
    for ks, h in segments:
        hh, h6 = 0.5 * h, h / 6.0
        for k in ks:
            try:
                p2, q2 = rhs(ts[k - 1] + hh, (a + hh * p1, b + hh * q1))
            except _FLOAT_ERRORS:
                return 4 * k - 3, True
            try:
                p3, q3 = rhs(ts[k - 1] + hh, (a + hh * p2, b + hh * q2))
            except _FLOAT_ERRORS:
                return 4 * k - 2, True
            try:
                p4, q4 = rhs(ts[k], (a + h * p3, b + h * q3))
                a = a + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                b = b + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            except _FLOAT_ERRORS:
                return 4 * k - 1, True
            xs[k], ths[k] = a, b
            try:
                p1, q1 = rhs(ts[k], (a, b))
            except _FLOAT_ERRORS:
                return 4 * k, True
            qs[k] = q1
    return 4 * (len(xs) - 1), False


def _rk45_steps(rhs, a, b, p1, q1, config, ts, xs, ths, qs):
    """Adaptive Dormand-Prince steps under the elementary controller, each
    accepted step appended to ``ts``, ``xs`` and ``ths``, and its end
    slope's theta_e' to ``qs``; returns ``(rhs calls, rejected attempts,
    blown up)``.

    Each stage state is ``y + (h*a1)*k1 + ...`` and each solution
    ``y + h*(0.0 + b1*k1 + ...)``, term by term.  A non-finite attempt (an
    rhs call that raises one of :data:`_FLOAT_ERRORS`, which ends it with
    the calls it made, or a non-finite error estimate from a non-finite
    stage slope or solution) quarters the step and a step below
    :data:`H_MIN` ends the run, blown up.  An error estimate that stays
    above 1 (or is NaN) at :data:`H_MIN`, or more than :data:`MAX_STEPS`
    attempts, raises StiffnessError.  The tableau is bound to locals once
    per run, and every min, max and abs of the controller is a comparison
    that picks the same float the builtin would, up to the sign of a zero
    the error scale adds to ``atol > 0``.  The build of
    :func:`_inline_phase` changes only the stage calls.
    """
    (C2, C3, C4, C5, A21, A31, A32, A41, A42, A43, A51, A52, A53, A54,
     A61, A62, A63, A64, A65, B1, B2, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7) = _TABLEAU
    inf = math.inf
    sqrt, isfinite, h_min, max_steps = math.sqrt, math.isfinite, H_MIN, MAX_STEPS
    t_end, rtol, atol = config.t_end, config.rtol, config.atol
    put_t, put_x, put_th, put_q = ts.append, xs.append, ths.append, qs.append
    attempts = short = 0            # attempts, and rhs calls they did not make
    t = 0.0
    h = min(config.h, t_end / 10.0)
    while t < t_end:
        r = t_end - t
        if r < h:                   # min(h, t_end - t)
            h = r
        attempts += 1
        if attempts > max_steps:
            raise StiffnessError(f"more than {max_steps} RK45 attempts (ode.MAX_STEPS) "
                                 f"before t_end, at t={t:g}")
        try:
            ha = h * A21
            p2, q2 = rhs(t + C2 * h, (a + ha * p1, b + ha * q1))
            ha, hb = h * A31, h * A32
            p3, q3 = rhs(t + C3 * h, (a + ha * p1 + hb * p2, b + ha * q1 + hb * q2))
            ha, hb, hc = h * A41, h * A42, h * A43
            p4, q4 = rhs(t + C4 * h, (a + ha * p1 + hb * p2 + hc * p3,
                                      b + ha * q1 + hb * q2 + hc * q3))
            ha, hb, hc = h * A51, h * A52, h * A53
            hd = h * A54
            p5, q5 = rhs(t + C5 * h, (a + ha * p1 + hb * p2 + hc * p3 + hd * p4,
                                      b + ha * q1 + hb * q2 + hc * q3 + hd * q4))
            ha, hb, hc = h * A61, h * A62, h * A63
            hd, he = h * A64, h * A65
            p6, q6 = rhs(t + h, (a + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5,
                                 b + ha * q1 + hb * q2 + hc * q3 + hd * q4 + he * q5))
            ha, hb, hc = h * B1, h * B2, h * B3
            hd, he, hf = h * B4, h * B5, h * B6
            p7, q7 = rhs(t + h, (a + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5 + hf * p6,
                                 b + ha * q1 + hb * q2 + hc * q3 + hd * q4 + he * q5 + hf * q6))
            a5 = a + h * (0.0 + B1 * p1 + B3 * p3 + B4 * p4 + B5 * p5 + B6 * p6)
            b5 = b + h * (0.0 + B1 * q1 + B3 * q3 + B4 * q4 + B5 * q5 + B6 * q6)
        except _FLOAT_ERRORS:
            # stopped at the stage whose row ha starts, the calls after it not made
            short += 5 - (h * A21, h * A31, h * A41, h * A51, h * A61, h * B1).index(ha)
        else:
            a4 = a + h * (0.0 + E1 * p1 + E3 * p3 + E4 * p4 + E5 * p5 + E6 * p6 + E7 * p7)
            b4 = b + h * (0.0 + E1 * q1 + E3 * q3 + E4 * q4 + E5 * q5 + E6 * q6 + E7 * q7)
            sa = a if a > 0 else -a     # abs(a), or -0.0 for 0.0
            s5 = a5 if a5 > 0 else -a5
            ea = (a5 - a4) / (atol + rtol * (s5 if s5 > sa else sa))
            sa = b if b > 0 else -b
            s5 = b5 if b5 > 0 else -b5
            eb = (b5 - b4) / (atol + rtol * (s5 if s5 > sa else sa))
            err = sqrt((0.0 + ea * ea + eb * eb) / 2)
            if err < inf or all(map(isfinite, (p2, q2, p3, q3, p4, q4, p5, q5, p6, q6,
                                                p7, q7, a5, b5))):
                if err <= 1.0:
                    t, a, b = t + h, a5, b5
                    p1, q1 = p7, q7
                    put_t(t)
                    put_x(a)
                    put_th(b)
                    put_q(q1)
                if err > 0:         # h * min(5.0, max(0.2, 0.9 * err**-0.2))
                    factor = 0.9 * err ** -0.2
                    h = h * (5.0 if factor > 5.0 else factor if factor > 0.2 else 0.2)
                elif err == 0:
                    h = h * 5.0
                else:               # NaN: shrink as for an infinite error
                    h = h * 0.2
                if h < h_min:
                    h = h_min
                if not err <= 1.0 and h <= h_min:
                    raise StiffnessError(f"step size underflow at t={t:g}")
                continue
        h *= 0.25                   # a stage raised, or a slope or the solution is not finite
        if h < h_min:
            return 6 * attempts - short, attempts - (len(ts) - 1), True
    return 6 * attempts - short, attempts - (len(ts) - 1), False


# A generic stepper's stage call ``pN, qN = rhs(T, (X, Y))`` written out as
# classic_rhs computes it on ClassicPhaseModel._rhs_consts, unpacked first: the
# same float operations in the same order (the model is autonomous: T unread)
_STAGE = "{p} = scale * fn(freq * ({y}))\n{q} = dw0 - k0 * (({x}) / tau1 + ratio * {p})"


class _InlineStages(ast.NodeTransformer):
    """Writes each stage call out as :data:`_STAGE`, at the call's position."""

    def visit_Assign(self, node):
        match node:
            case ast.Assign(targets=[ast.Tuple(elts=[ast.Name(id=p), ast.Name(id=q)])],
                            value=ast.Call(func=ast.Name(id="rhs"), keywords=[],
                                           args=[_, ast.Tuple(elts=[x, y])])):
                return placed(_STAGE.format(p=p, q=q, x=ast.unparse(x), y=ast.unparse(y)), node)
        return node


@functools.cache
def _inline_phase(steps):
    """``steps`` taking ``consts`` (``ClassicPhaseModel._rhs_consts``) for
    ``rhs``, each stage's slope written out on it: rebuilt from its source
    by :func:`core.rebuild`, so a traceback points into ``steps``.  Any
    other use of ``rhs`` raises ValueError.  Built on first use: importing
    the module parses nothing."""
    def transform(func):
        func = _InlineStages().visit(func)
        left = [n.lineno for n in ast.walk(func) if isinstance(n, ast.Name) and n.id == "rhs"]
        if left:
            raise ValueError(f"{steps.__name__} line {min(left)}: "
                             "rhs not in pN, qN = rhs(T, (X, Y))")
        func.name = steps.__name__.replace("_steps", "_phase")
        func.args.args[0].arg = "consts"
        func.body[1:1] = placed("dw0, k0, tau1, ratio, scale, freq, fn = consts", func)
        return func

    return rebuild(steps, transform)


def integrate(rhs: RhsFn, state0: Sequence[float], config: IntegratorConfig) -> Trajectory:
    """Integrate the two-component state0 to t_end, recording every
    accepted step.

    A run that reaches a non-finite state, or whose rhs raises one of
    :data:`_FLOAT_ERRORS` after the first call, ends early with
    ``blown_up`` set, and its trajectory holds finite states only: RK4
    ends it before the first non-finite state (the stepper's calls past
    that state still count), RK45 rejects a non-finite attempt and stops
    once the step falls below :data:`H_MIN`.  ``rhs_calls`` is 1 + the
    calls the stepper made, as many as an rhs that records its calls
    sees.  A slope that is not finite at the initial state raises
    ValueError.
    """
    y = tuple([float(v) for v in state0])
    if len(y) != 2:
        raise ValueError(f"state has {len(y)} components, not 2")
    try:
        f0 = rhs(0.0, y)
    except _FLOAT_ERRORS:
        f0 = (math.nan, math.nan)
    if len(f0) != 2:
        raise ValueError(f"right-hand side has {len(f0)} components for a state of 2")
    (a, b), (p, q) = y, f0
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError("right-hand side not finite at the initial state")
    steps = _rk4_steps if config.method == "rk4" else _rk45_steps
    if (type(rhs) is MethodType and rhs.__func__ is _CLASSIC_RHS
            and isinstance(rhs.__self__, ClassicPhaseModel)):
        rhs, steps = rhs.__self__._rhs_consts, _inline_phase(steps)
    if config.method == "rk45":
        ts, xs, ths, qs = array("d", [0.0]), array("d", [a]), array("d", [b]), array("d", [q])
        calls, rejected, blown_up = steps(rhs, a, b, p, q, config, ts, xs, ths, qs)
        return Trajectory(np.frombuffer(ts), np.column_stack((xs, ths)), np.frombuffer(qs),
                          blown_up=blown_up, rhs_calls=1 + calls, rejected_steps=rejected)
    ts, segments = _rk4_grid(config.t_end, config.h)
    ys = np.empty((len(ts), 2))
    ys[0] = y
    qs = np.full(len(ts), math.nan)
    qs[0] = q
    views = memoryview(ts), memoryview(ys[:, 0]), memoryview(ys[:, 1]), memoryview(qs)
    calls, blown_up = steps(rhs, a, b, p, q, segments, *views)
    n = calls // 4 + 1              # the states the run wrote
    ok = np.isfinite(ys[1:n].ravel())
    if not ok.all():                # the trajectory ends before the first non-finite one
        n, blown_up = int(ok.argmin()) // 2 + 1, True
    kept = (ts, ys, qs) if n == len(ts) else (ts[:n].copy(), ys[:n].copy(), qs[:n].copy())
    return Trajectory(*kept, blown_up=blown_up, rhs_calls=1 + calls)


# --- lock verdicts ----------------------------------------------------------

LOCK_TOL_P = 0.05   # rad on wrapped |theta_e|
LOCK_TAIL = 0.2     # fraction of t_end examined


def lock_verdict(traj: Trajectory, params: LoopParams, variant: LoopVariant) -> bool:
    """Locked iff phase and rate stay inside tolerance over the tail: the
    phase within :data:`LOCK_TOL_P` of a lock point (a multiple of the PD
    period), the recorded rate ``dtheta`` within 1e-3 * omega_n (1e-3 * K0
    when omega_n is 0).  A NaN counts as inside."""
    if traj.blown_up:
        return False
    tol_f = 1e-3 * (params.omega_n if params.omega_n > 0 else params.k0)
    tail = traj.t >= (1.0 - LOCK_TAIL) * traj.t[-1]
    return not ((np.abs(wrap_phase(traj.y[tail, 1], pd_period(variant))) > LOCK_TOL_P).any()
                or (np.abs(traj.dtheta[tail]) > tol_f).any())


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
    rhs = MethodType(baseband.classic_rhs, model)

    verdicts = []
    for h in h_list:
        traj = integrate(rhs, state0, IntegratorConfig(t_end=t_end, method="rk4", h=h))
        slips = count_cycle_slips(traj.y[:, 1], pd_period(variant))
        verdicts.append(ProbeVerdict(h, lock_verdict(traj, params, variant), slips))

    ref = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-8, atol=1e-10)
    )
    ref_locked = lock_verdict(ref, params, variant)
    tight = integrate(
        rhs, state0, IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    )
    tight_locked = lock_verdict(tight, params, variant)
    return ProbeReport(
        verdicts=verdicts,
        reference_locked=ref_locked,
        solver_sensitive=ref_locked != tight_locked,
    )


# --- phase portrait ----------------------------------------------------------

@dataclass
class ClassifiedTrajectory:
    state0: tuple
    label: str           # "eq" | "cycle" | "undecided"
    trajectory: Trajectory


def _autocorr_peak(x: np.ndarray, min_lag: int) -> float:
    """Largest normalized autocorrelation over lags in [min_lag, n/2], and
    0.0 if none is positive.

    A lag is skipped where the energy of x[:n-lag] or of x[lag:] is 0 (or
    their product underflows to 0); a NaN correlation never wins.
    """
    x = x - x.mean()
    n = len(x)
    if float(np.dot(x, x)) <= 0:
        return 0.0
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, nfft)
    lags = np.arange(min_lag, n // 2 + 1)
    raw = np.fft.irfft(spec * np.conj(spec), nfft)[lags]
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    energy = csum[n - lags] * (csum[n] - csum[lags])   # of x[:n-lag] times of x[lag:]
    kept = energy > 0
    corr = raw[kept] / np.sqrt(energy[kept])
    corr = corr[corr > 0.0]
    return float(corr.max()) if len(corr) else 0.0


def _classify(traj: Trajectory, params: LoopParams, variant: LoopVariant) -> str:
    if traj.blown_up:
        return "undecided"
    if lock_verdict(traj, params, variant):
        return "eq"
    t_end = traj.t[-1]
    grid = np.linspace((1.0 - LOCK_TAIL) * t_end, t_end, 4096)
    first, last = np.interp(grid[[0, -1]], traj.t, traj.y[:, 1])
    if abs(last - first) < pd_period(variant):
        return "undecided"
    rate = np.interp(grid, traj.t, traj.dtheta)
    return "cycle" if _autocorr_peak(rate, min_lag=8) > 0.99 else "undecided"


def phase_portrait(
    model: ClassicPhaseModel,
    initial_states: Sequence[Sequence[float]],
    t_end: float,
    emit: Callable[[ClassifiedTrajectory], None],
) -> None:
    """Integrate each initial condition and classify its limit set: "eq"
    (locks), "cycle" (rides a periodic cycle-slipping orbit) or
    "undecided".

    Each classified trajectory goes to ``emit`` before the next state is
    integrated, so one trajectory is held at a time.
    """
    params, variant = model.params, model.pd.variant
    cfg = IntegratorConfig(t_end=t_end, method="rk45", rtol=1e-9, atol=1e-11)
    rhs = MethodType(baseband.classic_rhs, model)

    for s0 in initial_states:
        traj = integrate(rhs, s0, cfg)
        emit(ClassifiedTrajectory(tuple(s0), _classify(traj, params, variant), traj))
        del traj


# --- pitfall reproduction parameters ----------------------------------------

def pitfall_example_model(delta_omega0: float = 89.45) -> ClassicPhaseModel:
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
    gain, zeta, omega_n = 1000.0, 0.10, 12.0
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
