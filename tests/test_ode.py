import ast
import dis
import importlib.util
import inspect
import math
import os
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path
from types import CodeType, FunctionType, MethodType, SimpleNamespace

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    MODIFIED_QPSK,
    ClassicPhaseModel,
    DelayModel,
    DesignSpec,
    baseband,
    classic_rhs,
    delay_rhs,
    design,
    ode,
)
from costas_lab.core import (LoopVariant, PdFlavor, VariantTag, count_cycle_slips, pd_period,
                             wrap_phase)
from costas_lab.detectors import PdCharacteristic
from costas_lab.ode import (
    IntegratorConfig,
    PITFALL_H_LIST,
    PITFALL_STATE0,
    PITFALL_T_END,
    StiffnessError,
    Trajectory,
    integrate,
    lock_verdict,
    phase_portrait,
    pitfall_example_model,
    step_sensitivity_probe,
)

TWO_PI = 2.0 * math.pi


def harmonic_rhs(t, y):
    return np.array([y[1], -y[0]])


class TestIntegrate:
    def test_rk4_energy_drift_harmonic(self):
        period = TWO_PI
        cfg = IntegratorConfig(t_end=10 * period, method="rk4", h=1e-3 * period)
        traj = integrate(harmonic_rhs, (1.0, 0.0), cfg)
        energy = traj.y[:, 0] ** 2 + traj.y[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-8

    def test_rk45_matches_analytic_harmonic(self):
        cfg = IntegratorConfig(t_end=TWO_PI, method="rk45", rtol=1e-10, atol=1e-12)
        traj = integrate(harmonic_rhs, (1.0, 0.0), cfg)
        assert traj.y[-1, 0] == pytest.approx(math.cos(traj.t[-1]), abs=1e-7)

    def test_rk45_vs_rk4_pull_trajectory(self, bpsk_design):
        model = ClassicPhaseModel(
            bpsk_design.with_offset(TWO_PI * 50e3),
            PdCharacteristic(CONVENTIONAL_BPSK, 1.0),
        )

        def rhs(t, y):
            return np.array(classic_rhs(model, t, (y[0], y[1])))

        t_end = 100e-6
        h = 2e-9
        fine = integrate(rhs, (0.0, 0.0),
                         IntegratorConfig(t_end=t_end, method="rk4", h=h))
        adaptive = integrate(rhs, (0.0, 0.0),
                             IntegratorConfig(t_end=t_end, method="rk45",
                                              rtol=1e-11, atol=1e-13))
        # compare at the adaptive solver's accepted points; the fixed-step
        # series is dense enough to interpolate without losing accuracy
        ref_at_adaptive = fine.resample(adaptive.t)
        worst = np.max(np.abs(ref_at_adaptive[:, 1] - adaptive.y[:, 1]))
        assert worst < 1e-5

    def test_rk4_fourth_order_convergence(self, bpsk_design):
        model = ClassicPhaseModel(
            bpsk_design.with_offset(TWO_PI * 30e3),
            PdCharacteristic(CONVENTIONAL_BPSK, 1.0),
        )

        def rhs(t, y):
            return np.array(classic_rhs(model, t, (y[0], y[1])))

        t_end = 50e-6
        ref = integrate(rhs, (0.0, 0.0),
                        IntegratorConfig(t_end=t_end, method="rk45",
                                         rtol=1e-12, atol=1e-14))
        ref_theta = ref.y[-1, 1]

        def err(h):
            traj = integrate(rhs, (0.0, 0.0),
                             IntegratorConfig(t_end=t_end, method="rk4", h=h))
            return abs(traj.y[-1, 1] - ref_theta)

        h = 1.0e-6
        factor = err(h) / err(h / 2)
        assert 12.0 <= factor <= 20.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_event_halts(self):
        def rhs(t, y):
            return np.array([y[0] ** 2, 0.0])

        cfg = IntegratorConfig(t_end=10.0, method="rk4", h=0.1)
        traj = integrate(rhs, (1.0, 0.0), cfg)
        assert traj.blown_up
        assert traj.t[-1] < 10.0

    def test_nonfinite_initial_rhs_rejected(self):
        def rhs(t, y):
            return np.array([math.inf, 0.0])

        with pytest.raises(ValueError):
            integrate(rhs, (1.0, 0.0), IntegratorConfig(t_end=1.0))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("call", range(2, 8))
    def test_float_error_counts_as_non_finite_slope(self, method, call):
        # Calls 2-4 are RK4's stages and 5 its first end slope; calls 2-7 are
        # the stages of RK45's first attempt.  A raise ends RK4 blown up
        # and makes RK45 reject the attempt and quarter the step.
        seen = []

        def rhs(t, y):
            seen.append(t)
            if len(seen) == call:
                raise ValueError("math domain error")
            return (0.0, 1.0)

        traj = integrate(rhs, (0.0, 0.0), IntegratorConfig(t_end=1.0, method=method, h=0.1))
        assert traj.rhs_calls == len(seen)
        if method == "rk45":
            assert (traj.blown_up, traj.rejected_steps) == (False, 1)
            assert traj.t[-1] == 1.0 and traj.y[-1, 1] == pytest.approx(1.0)
        elif call <= 5:
            assert traj.blown_up and len(seen) == call
            assert len(traj.t) == (2 if call == 5 else 1)
        else:                       # the raise falls in the second step
            assert traj.blown_up and len(traj.t) == 2

    def test_non_finite_stage_state_blows_up(self):
        # the first stage state, 5e9 * 1e300, overflows and math.sin raises
        def rhs(t, y):
            return (0.0, 1e300 + 0.0 * math.sin(y[1]))

        traj = integrate(rhs, (0.0, 0.0), IntegratorConfig(t_end=1e11, method="rk4", h=1e10))
        assert traj.blown_up and len(traj.t) == 1 and traj.rhs_calls == 2

    def test_cycle_slips_counted_on_trajectory(self):
        # pure drift: theta(t) = 0.9 t crosses the cell boundaries
        # (k + 1/2)*pi for k = 0..8 before t_end
        def rhs(t, y):
            return np.array([0.0, 0.9])

        period = math.pi
        cfg = IntegratorConfig(t_end=30.0, method="rk4", h=0.5)
        traj = integrate(rhs, (0.0, 0.0), cfg)
        assert not traj.blown_up
        assert count_cycle_slips(traj.y[:, 1], period) == \
            math.floor((0.9 * 30.0 + period / 2) / period) == 9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, method="euler")

    @pytest.mark.parametrize("controls", [
        {"t_end": math.nan}, {"t_end": math.inf}, {"h": math.nan}, {"h": math.inf},
        {"rtol": math.nan}, {"rtol": math.inf}, {"atol": math.nan}, {"atol": math.inf},
    ], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_non_finite_controls_rejected(self, controls):
        with pytest.raises(ValueError):
            IntegratorConfig(**{"t_end": 1.0, **controls})

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_rk45_step_floor_raises_instead_of_spinning(self):
        # y' = y^2 blows up at t = 1; near it the controller shrinks h to the
        # H_MIN floor and raises StiffnessError there, not an endless retry.
        # The NaN error estimate branch is EQUIVALENCE_CASES["nan_error-rk45"].
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            if calls[0] > 100_000:
                raise RuntimeError("controller spins")
            return np.array([y[0] ** 2, 0.0])

        with pytest.raises(StiffnessError):
            integrate(rhs, (1.0, 0.0), IntegratorConfig(t_end=10.0, rtol=1e-6))

    def test_rhs_length_must_match_state(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: (0.0,), (1.0, 0.0), IntegratorConfig(t_end=1.0))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("error", [OverflowError, ValueError, ZeroDivisionError])
    def test_initial_rhs_that_raises_is_not_finite(self, method, error):
        # a float error at the initial state is a non-finite initial slope,
        # as it is at any later stage
        def rhs(t, y):
            raise error("math domain error")

        with pytest.raises(ValueError, match="not finite at the initial state"):
            integrate(rhs, (0.0, 1e308), IntegratorConfig(t_end=1.0, method=method))

    @pytest.mark.parametrize("state0", [(1.0,), (1.0, 0.0, 0.0)], ids=["1", "3"])
    def test_state_must_have_two_components(self, state0):
        calls = []
        with pytest.raises(ValueError, match="components, not 2"):
            integrate(lambda t, y: calls.append(y) or (0.0,) * len(y), state0,
                      IntegratorConfig(t_end=1.0))
        assert calls == []

    @pytest.mark.parametrize("t_end,h,steps", [(1.0, 0.4, 3), (1.0, 0.3, 4), (2.1, 0.15, 14)])
    def test_rk4_ends_on_t_end(self, t_end, h, steps):
        # 1.0/0.4 and 1.0/0.3 once stopped at 0.8 and 0.9.  2.1/0.15 rounds
        # up to 14.000000000000002 and keeps its 14 steps, though they sum
        # to one ulp short of t_end: the end time is the sum of the steps.
        traj = integrate(lambda t, y: (0.0, 1.0), (0.0, 0.0),
                         IntegratorConfig(t_end=t_end, method="rk4", h=h))
        taken = np.diff(traj.t)
        assert len(taken) == steps
        assert traj.t[-1] == pytest.approx(t_end, rel=1e-15)
        np.testing.assert_allclose(taken[:-1], h, rtol=1e-12)
        assert 0 < taken[-1] <= h * (1 + 1e-12)


# --- the rhs contract ----------------------------------------------------------

def _drift_2d(t, y):
    """Pitfall-model slope: slips under RK4 at h = 2e-2 and under RK45."""
    return classic_rhs(PITFALL_MODEL, t, y)


def _drift_1d(t, y):
    """The one-dimensional drift theta' = 0.9 + 0.5 sin(theta) as the phase
    component, beside a passive x."""
    return (0.0, 0.9 + 0.5 * math.sin(y[1]))


PITFALL_MODEL = pitfall_example_model()
CONTRACT_CASES = {               # rhs, state0, phase component, t_end
    "2d": (_drift_2d, PITFALL_STATE0, 1, 20.0),
    "1d": (_drift_1d, (0.0, 0.0), 1, 30.0),
}
CONTRACT_CONFIGS = {
    "rk4": dict(method="rk4", h=2e-2),
    "rk45": dict(method="rk45", rtol=1e-9, atol=1e-11),
}


def _run(rhs, state0, t_end, controls):
    return integrate(rhs, state0, IntegratorConfig(t_end=t_end, **controls))


class TestRhsContract:
    @pytest.mark.parametrize("method", sorted(CONTRACT_CONFIGS))
    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    @pytest.mark.parametrize("container", [list, np.array])
    def test_any_sequence_gives_same_trajectory(self, case, method, container):
        rhs, state0, comp, t_end = CONTRACT_CASES[case]
        controls = CONTRACT_CONFIGS[method]
        ref = _run(rhs, state0, t_end, controls)
        other = _run(lambda t, y: container(rhs(t, y)), state0, t_end, controls)
        assert ref.t.tobytes() == other.t.tobytes()
        assert ref.y.shape == other.y.shape == (len(ref.t), len(state0))
        assert ref.y.tobytes() == other.y.tobytes()
        assert ref.blown_up is other.blown_up is False
        slips = count_cycle_slips(ref.y[:, comp], math.pi)
        assert slips == count_cycle_slips(other.y[:, comp], math.pi)
        assert slips > 0

    @pytest.mark.parametrize("method", sorted(CONTRACT_CONFIGS))
    def test_rhs_call_pattern(self, method):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return _drift_2d(t, y)

        traj = _run(rhs, PITFALL_STATE0, 20.0, CONTRACT_CONFIGS[method])
        steps = len(traj.t) - 1
        assert traj.rhs_calls == calls[0]
        if method == "rk4":
            # first same as last: a step's first stage is the previous end slope
            assert calls[0] == 1 + 4 * steps
            assert traj.rejected_steps == 0
        else:
            # benchmark/tracer.py derives rejected steps from this count
            assert traj.rejected_steps > 0
            assert calls[0] == 1 + 6 * (steps + traj.rejected_steps)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("rhs,state0,controls", [
        (_drift_2d, PITFALL_STATE0, dict(method="rk4", h=2e-2)),
        (_drift_2d, PITFALL_STATE0, dict(method="rk45")),
        (harmonic_rhs, (1.0, 0.0), dict(method="rk45")),       # ndarray slopes
        (lambda t, y: np.array([y[0] ** 2, 0.0]), (1.0, 0.0), dict(method="rk4", h=0.1)),
    ], ids=["rk4", "rk45", "ndarray", "blown_up"])
    def test_trajectory_arrays(self, rhs, state0, controls):
        traj = integrate(rhs, state0, IntegratorConfig(t_end=2.0, **controls))
        n = len(traj.t)
        assert n > 1
        assert traj.t.dtype == traj.y.dtype == np.float64
        assert traj.t.shape == (n,) and traj.y.shape == (n, 2)
        assert traj.t[0] == 0.0 and traj.y[0].tolist() == list(state0)


class TestStepCap:
    def test_rk4_over_cap_refused_from_config(self):
        # refused at construction, before any step runs
        IntegratorConfig(t_end=float(ode.MAX_STEPS), method="rk4", h=1.0)
        for t_end, h in [(ode.MAX_STEPS + 1.0, 1.0), (1e9, 1e-9), (1e300, 1e-300)]:
            with pytest.raises(ValueError, match=f"above the cap of {ode.MAX_STEPS}"):
                IntegratorConfig(t_end=t_end, method="rk4", h=h)
        IntegratorConfig(t_end=1e9, method="rk45", h=1e-9)   # RK45 counts attempts

    def test_rk4_cap_counts_by_the_step_rule(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 3)
        IntegratorConfig(t_end=1.0, method="rk4", h=0.4)     # 3 steps
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, method="rk4", h=0.3)  # 4 steps

    def test_rk45_attempts_capped(self, monkeypatch):
        cfg = IntegratorConfig(t_end=20.0, **CONTRACT_CONFIGS["rk45"])
        full = integrate(_drift_2d, PITFALL_STATE0, cfg)
        attempts = len(full.t) - 1 + full.rejected_steps
        monkeypatch.setattr(ode, "MAX_STEPS", attempts)
        again = integrate(_drift_2d, PITFALL_STATE0, cfg)
        assert again.t.tobytes() == full.t.tobytes()
        monkeypatch.setattr(ode, "MAX_STEPS", attempts - 1)
        with pytest.raises(StiffnessError, match=f"more than {attempts - 1} RK45 attempts"):
            integrate(_drift_2d, PITFALL_STATE0, cfg)


# --- equivalence with the generic engine ----------------------------------------
# The generic per-component tuple engine the two-float steppers replaced, kept
# as the reference: both must make the same float operations, in the same
# order, and the same rhs calls.  Every case's t_end is a multiple of its h,
# where this engine's round(t_end/h) steps and the ceiling rule agree.

_R_C2, _R_C3, _R_C4, _R_C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_R_A21 = 1 / 5
_R_A31, _R_A32 = 3 / 40, 9 / 40
_R_A41, _R_A42, _R_A43 = 44 / 45, -56 / 15, 32 / 9
_R_A51, _R_A52, _R_A53, _R_A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_R_A61, _R_A62, _R_A63, _R_A64, _R_A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                          -5103 / 18656)
_R_B1, _R_B2, _R_B3, _R_B4, _R_B5, _R_B6, _R_B7 = (35 / 384, 0.0, 500 / 1113, 125 / 192,
                                                   -2187 / 6784, 11 / 84, 0.0)
_R_E1, _R_E2, _R_E3, _R_E4, _R_E5, _R_E6, _R_E7 = (5179 / 57600, 0.0, 7571 / 16695,
                                                   393 / 640, -92097 / 339200, 187 / 2100,
                                                   1 / 40)


def _ref_finite(v):
    return all(map(math.isfinite, v))


def _ref_rk4_step(f, t, y, k1, h):
    hh = 0.5 * h
    k2 = f(t + hh, tuple([v + hh * p for v, p in zip(y, k1)]))
    k3 = f(t + hh, tuple([v + hh * p for v, p in zip(y, k2)]))
    k4 = f(t + h, tuple([v + h * p for v, p in zip(y, k3)]))
    h6 = h / 6.0
    return tuple([v + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                  for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])


def _ref_dp_attempt(f, t, y, k1, h):
    isfinite = math.isfinite
    ha = h * _R_A21
    k2 = f(t + _R_C2 * h, tuple([v + ha * p1 for v, p1 in zip(y, k1)]))
    if not all(map(isfinite, k2)):
        return (k1, k2), None, None
    ha, hb = h * _R_A31, h * _R_A32
    k3 = f(t + _R_C3 * h, tuple([v + ha * p1 + hb * p2 for v, p1, p2 in zip(y, k1, k2)]))
    if not all(map(isfinite, k3)):
        return (k1, k2, k3), None, None
    ha, hb, hc = h * _R_A41, h * _R_A42, h * _R_A43
    k4 = f(t + _R_C4 * h, tuple([v + ha * p1 + hb * p2 + hc * p3
                                 for v, p1, p2, p3 in zip(y, k1, k2, k3)]))
    if not all(map(isfinite, k4)):
        return (k1, k2, k3, k4), None, None
    ha, hb, hc, hd = h * _R_A51, h * _R_A52, h * _R_A53, h * _R_A54
    k5 = f(t + _R_C5 * h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4
                                 for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]))
    if not all(map(isfinite, k5)):
        return (k1, k2, k3, k4, k5), None, None
    ha, hb, hc, hd, he = h * _R_A61, h * _R_A62, h * _R_A63, h * _R_A64, h * _R_A65
    k6 = f(t + h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5
                         for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)]))
    if not all(map(isfinite, k6)):
        return (k1, k2, k3, k4, k5, k6), None, None
    ha, hb, hc, hd, he, hf = (h * _R_B1, h * _R_B2, h * _R_B3, h * _R_B4, h * _R_B5,
                              h * _R_B6)
    k7 = f(t + h, tuple([v + ha * p1 + hb * p2 + hc * p3 + hd * p4 + he * p5 + hf * p6
                         for v, p1, p2, p3, p4, p5, p6 in zip(y, k1, k2, k3, k4, k5, k6)]))
    ks = (k1, k2, k3, k4, k5, k6, k7)
    if not all(map(isfinite, k7)):
        return ks, None, None
    y5 = tuple([v + h * (0.0 + _R_B1 * p1 + _R_B2 * p2 + _R_B3 * p3 + _R_B4 * p4
                         + _R_B5 * p5 + _R_B6 * p6 + _R_B7 * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    if not all(map(isfinite, y5)):
        return ks, None, None
    y4 = tuple([v + h * (0.0 + _R_E1 * p1 + _R_E2 * p2 + _R_E3 * p3 + _R_E4 * p4
                         + _R_E5 * p5 + _R_E6 * p6 + _R_E7 * p7)
                for v, p1, p2, p3, p4, p5, p6, p7 in zip(y, *ks)])
    return ks, y5, y4


def _ref_rk4_steps(rhs, y, f0, config, counts):
    t = 0.0
    for _ in range(max(1, int(round(config.t_end / config.h)))):
        h = min(config.h, config.t_end - t)
        if h <= 0:
            return
        y1 = _ref_rk4_step(rhs, t, y, f0, h)
        if not _ref_finite(y1):
            counts[0] += 3
            counts[2] = True
            return
        f0 = rhs(t + h, y1)
        counts[0] += 4
        t, y = t + h, y1
        yield t, y


def _ref_rk45_steps(rhs, y, f0, config, counts):
    t_end = config.t_end
    rtol, atol = config.rtol, config.atol
    dim = len(y)
    t = 0.0
    h = min(config.h, t_end / 10.0)
    while t < t_end:
        h = min(h, t_end - t)
        ks, y5, y4 = _ref_dp_attempt(rhs, t, y, f0, h)
        counts[0] += len(ks) - 1
        if y5 is None:
            counts[1] += 1
            h *= 0.25
            if h < ode.H_MIN:
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
        else:
            factor = 0.2
        h = h * min(5.0, max(0.2, factor))
        h = max(h, ode.H_MIN)
        if not err <= 1.0 and h <= ode.H_MIN:
            raise StiffnessError(f"step size underflow at t={t:g}")


def _ref_integrate(rhs, state0, config):
    y = tuple([float(v) for v in state0])
    f0 = rhs(0.0, y)
    if not _ref_finite(f0):
        raise ValueError("right-hand side not finite at the initial state")
    ts, ys = [0.0], [y]
    counts = [1, 0, False]
    steps = _ref_rk4_steps if config.method == "rk4" else _ref_rk45_steps
    for t, y in steps(rhs, y, f0, config, counts):
        ts.append(t)
        ys.append(y)
    return Trajectory(np.array(ts), np.array(ys), blown_up=counts[2],
                      rhs_calls=counts[0], rejected_steps=counts[1])


def _pitfall_rhs():
    return _drift_2d


def _delay_rhs():
    """The delay fidelity's rhs as the CLI builds it: each call seeds the
    implicit solve with the previous call's rate."""
    params = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_BPSK))
    model = DelayModel(params.with_offset(TWO_PI * 30e3), PdCharacteristic(CONVENTIONAL_BPSK, 1.0))
    seed = [model.params.delta_omega0]

    def rhs(t, y):
        slope = delay_rhs(model, y, seed[0])
        seed[0] = slope[1]
        return slope

    return rhs


def _mod_qpsk_rhs():
    params = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=MODIFIED_QPSK))
    model = ClassicPhaseModel(params.with_offset(TWO_PI * 80e3),
                              PdCharacteristic(MODIFIED_QPSK, 1.0))
    return lambda t, y: classic_rhs(model, t, y)


def _square_rhs():
    return lambda t, y: (y[0] * y[0], 0.0)


def _capped_square_rhs():
    """x' = x^2 until x reaches 1e3, then a non-finite slope: RK45 attempts
    stop at non-finite stages until the step falls below H_MIN."""
    return lambda t, y: (y[0] * y[0] if y[0] < 1e3 else math.inf, 0.0)


def _nan_error_rhs():
    """Zero slopes, except that the last stage of every other attempt has an
    x slope of 1.7e308.  At h = 100 that attempt's 4th-order x overflows
    while its 5th-order x (weight b7 = 0) stays finite, and at rtol 1e300
    the error scale atol + rtol*|x| overflows too: the error estimate is
    inf/inf = NaN, and the attempt is rejected."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return (1.7e308 if calls[0] % 12 == 7 else 0.0, 0.0)

    return rhs


def _late_nonfinite_rhs():
    """theta' = 1, except that the last stage of every other attempt has an
    infinite slope: that attempt stops at the stage-7 check."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return (math.inf if calls[0] % 12 == 7 else 0.0, 1.0)

    return rhs


def _floor_at_h_min_rhs():
    """Zero slopes, except an infinite one at the first attempt's first
    stage, which quarters h from 4e-12 to H_MIN, and an x slope of 4.85e5
    at the next attempt's last stage.  That attempt is accepted with an
    error near 0.85, so the controller's next step, about 0.93 * H_MIN, is
    raised to H_MIN, and the run goes on."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return {2: (math.inf, 0.0), 8: (4.85e5, 0.0)}.get(calls[0], (0.0, 0.0))

    return rhs


# The RK45 controller's branches and the cases that reach them:
#   err == 0, h grows by the 5.0 cap: mod_qpsk, blow_up, nonfinite_stage
#   0.9 * err**-0.2 above the 5.0 cap: mod_qpsk, ndarray, blow_up
#   0.9 * err**-0.2 below the 0.2 floor: delay, mod_qpsk
#   NaN error, h shrinks by 0.2: nan_error
#   h floored at H_MIN: h_min_floor, and blow_up, which then raises
#   StiffnessError
#   the step clipped to end on t_end: pitfall, delay, mod_qpsk, ndarray,
#   nan_error, late_nonfinite
#   a non-finite slope at stages 2-6: nonfinite_stage; at stage 7:
#   late_nonfinite; a non-finite 5th-order solution: overflow (blown up)
EQUIVALENCE_CASES = {     # rhs factory, state0, integrator controls
    "pitfall-rk4": (_pitfall_rhs, PITFALL_STATE0,
                    dict(t_end=PITFALL_T_END, method="rk4", h=2e-2)),
    "pitfall-rk45": (_pitfall_rhs, PITFALL_STATE0,
                     dict(t_end=20.0, method="rk45", rtol=1e-9, atol=1e-11)),
    "delay-rk45": (_delay_rhs, (0.0, 1.1), dict(t_end=1e-4, method="rk45")),
    "mod_qpsk-rk45": (_mod_qpsk_rhs, (0.0, 0.3), dict(t_end=1e-4, method="rk45")),
    "ndarray-rk4": (lambda: harmonic_rhs, (1.0, 0.0),
                    dict(t_end=TWO_PI, method="rk4", h=1e-2 * TWO_PI)),
    "ndarray-rk45": (lambda: harmonic_rhs, (1.0, 0.0),
                     dict(t_end=TWO_PI, method="rk45", rtol=1e-10, atol=1e-12)),
    "blow_up-rk4": (_square_rhs, (1.0, 0.0), dict(t_end=10.0, method="rk4", h=0.1)),
    "blow_up-rk45": (_square_rhs, (1.0, 0.0), dict(t_end=10.0, method="rk45", rtol=1e-6)),
    "nonfinite_stage-rk45": (_capped_square_rhs, (1.0, 0.0),
                             dict(t_end=10.0, method="rk45", rtol=1e-6, atol=1e-6)),
    "nan_error-rk45": (_nan_error_rhs, (1e10, 0.0),
                       dict(t_end=1000.0, method="rk45", h=100.0, rtol=1e300)),
    "late_nonfinite-rk45": (_late_nonfinite_rhs, (0.0, 0.0), dict(t_end=1.0, method="rk45")),
    "overflow-rk45": (lambda: lambda t, y: (1.7e308, 0.0), (0.0, 0.0),
                      dict(t_end=1.0, method="rk45")),
    "h_min_floor-rk45": (_floor_at_h_min_rhs, (1.0, 0.0),
                         dict(t_end=1e-10, method="rk45", h=4e-12)),
}


def _outcome(integrator, case):
    """Everything a run shows: the trajectory's bytes and counters (or the
    StiffnessError it raised) and the bytes of every rhs argument."""
    make_rhs, state0, controls = EQUIVALENCE_CASES[case]
    rhs, seen = make_rhs(), []

    def recorded(t, y):
        seen.append((t, *y))
        return rhs(t, y)

    try:
        traj = integrator(recorded, state0, IntegratorConfig(**controls))
    except StiffnessError as exc:
        return str(exc), np.array(seen).tobytes()
    assert traj.rhs_calls == len(seen)
    return (traj.t.tobytes(), traj.y.tobytes(), traj.rhs_calls, traj.rejected_steps,
            traj.blown_up, np.array(seen).tobytes())


class TestEquivalence:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_same_as_generic_engine(self, case):
        assert _outcome(integrate, case) == _outcome(_ref_integrate, case)

    def test_cases_reach_every_exit(self):
        kinds = set()
        for case in ("blow_up-rk4", "blow_up-rk45", "nonfinite_stage-rk45"):
            out = _outcome(integrate, case)
            kinds.add("stiff" if isinstance(out[0], str) else ("blown_up" if out[4] else "ok"))
        assert kinds == {"stiff", "blown_up"}


@pytest.fixture(scope="module")
def counted_probe(counted_phase_rhs):
    """The pitfall probe, with every phase rhs call counted at
    ``baseband.classic_rhs`` and at the integrator and the lock verdict."""
    with counted_phase_rhs([(ode, "integrate", 0), (ode, "lock_verdict", 1)]) as (counts, seen):
        report = step_sensitivity_probe(pitfall_example_model(), PITFALL_STATE0,
                                        PITFALL_H_LIST, PITFALL_T_END)
    return report, counts, seen


@pytest.fixture(scope="module")
def report(counted_probe):
    return counted_probe[0]


def classified(model, states, t_end):
    """Every ClassifiedTrajectory ``phase_portrait`` emits, in order."""
    out = []
    phase_portrait(model, states, t_end, out.append)
    return out


@pytest.fixture(scope="module")
def counted_portrait(counted_phase_rhs):
    """A portrait, with every phase rhs call counted at
    ``baseband.classic_rhs`` and at the integrator and the classifier."""
    model = pitfall_example_model()
    xeq = model.equilibrium_x()
    states = [
        (xeq, 0.3), (xeq, -0.25), (xeq * 1.02, 0.0),
        PITFALL_STATE0, (0.0125, 0.4), (0.002, 1.0),
    ]
    with counted_phase_rhs([(ode, "integrate", 0), (ode, "_classify", 1)]) as (counts, seen):
        port = classified(model, states, 15.0)
    return port, counts, seen


@pytest.fixture(scope="module")
def portrait(counted_portrait):
    return counted_portrait[0]


class TestProbe:
    def test_coarse_step_reports_lock(self, report):
        assert report.locked_at(2e-2) is True

    def test_fine_steps_report_no_lock(self, report):
        assert report.locked_at(1e-2) is False
        assert report.locked_at(1e-3) is False

    def test_adaptive_reference_agrees_with_fine(self, report):
        assert report.reference_locked is False
        assert report.solver_sensitive is False

    def test_cycle_slips_pinned(self, report):
        # counted on each RK4 run's phase error, lock cells one pi wide
        assert [(v.h, v.cycle_slips) for v in report.verdicts] == \
            [(2e-2, 1_398), (1e-2, 1_609), (1e-3, 1_631)]

    def test_rhs_calls_pinned(self, counted_probe):
        # the three RK4 runs take 126,500 steps; at five calls per step the
        # probe made 1,014,619 calls, at four (first same as last) it makes
        # one per step fewer
        assert counted_probe[1]["classic_rhs"] == 1_014_619 - 126_500

    def test_measurement_point_sees_every_call(self, counted_probe):
        # a rebinding of baseband.classic_rhs made before the probe counts
        # the integrator's own rhs_calls plus the lock verdicts' calls
        _, counts, seen = counted_probe
        assert counts["integrate"] == counts["rhs_calls"]
        assert counts["classic_rhs"] == counts["integrate"] + counts["lock_verdict"]
        assert counts["lock_verdict"] > 0
        # one rhs, bound once, for the five runs and their five verdicts
        assert len(seen) == 10 and all(rhs is seen[0] for rhs in seen)


class TestPortrait:
    def test_both_classes_present(self, portrait):
        assert {"eq", "cycle"} <= {c.label for c in portrait}

    def test_equilibrium_neighborhood_converges(self, portrait):
        labels = {c.state0: c.label for c in portrait}
        model = pitfall_example_model()
        xeq = model.equilibrium_x()
        assert labels[(xeq, 0.3)] == "eq"

    def test_demo_state_rides_cycle(self, portrait):
        labels = {c.state0: c.label for c in portrait}
        assert labels[PITFALL_STATE0] == "cycle"

    def test_classification_order_invariant(self):
        model = pitfall_example_model()
        xeq = model.equilibrium_x()
        states = [(xeq, 0.3), PITFALL_STATE0, (0.002, 1.0)]
        a = classified(model, states, 12.0)
        b = classified(model, states[::-1], 12.0)
        la = {c.state0: c.label for c in a}
        lb = {c.state0: c.label for c in b}
        assert la == lb

    def test_emits_each_before_the_next_runs(self, monkeypatch):
        # one trajectory is held at a time: each is emitted before the next
        # state is integrated
        runs, emitted = [], []

        def counted(*args):
            runs.append(args[1])
            return integrate(*args)

        monkeypatch.setattr(ode, "integrate", counted)
        states = [(0.0, 0.4), (0.0, -0.6), (0.001, 1.0)]

        def emit(c):
            emitted.append(c.state0)
            assert runs == emitted

        phase_portrait(pitfall_example_model(delta_omega0=0.0), states, 1.0, emit)
        assert emitted == states

    def test_zero_detuning_all_converge(self):
        base = pitfall_example_model(delta_omega0=0.0)
        states = [(0.0, 0.4), (0.0, -0.6), (0.001, 1.0)]
        port = classified(base, states, 8.0)
        assert {c.label for c in port} == {"eq"}


class TestPhaseRhsBinding:
    """The probe and the portrait bind ``baseband.classic_rhs`` to the model
    once per run, so a rebinding of that name made before the run, the
    point a tracer patches, sees every phase rhs call."""

    def test_probe_and_portrait_bind_the_home_function(self, monkeypatch):
        given = []

        def spy(rhs, *args):
            given.append(rhs)
            return integrate(rhs, *args)

        monkeypatch.setattr(ode, "integrate", spy)
        model = pitfall_example_model()
        step_sensitivity_probe(model, PITFALL_STATE0, [0.5], 2.0)
        phase_portrait(model, [(0.0, 0.4), (0.0, -0.6)], 1.0, lambda c: None)
        assert len(given) == 5
        for rhs in given:
            assert type(rhs) is MethodType
            assert rhs.__func__ is baseband.classic_rhs and rhs.__self__ is model
        assert given[0] is given[1] is given[2] and given[3] is given[4]

    def test_portrait_counts(self, counted_portrait):
        # the integrator's rhs_calls plus the classifier's (its lock
        # verdicts and the rate series of the cycles), all at the
        # measurement point
        port, counts, seen = counted_portrait
        assert counts["integrate"] == counts["rhs_calls"]
        cycles = sum(c.label == "cycle" for c in port)
        assert cycles and counts["_classify"] > 4096 * cycles
        assert counts["classic_rhs"] == counts["integrate"] + counts["_classify"]
        assert len(seen) == 2 * len(port) and all(rhs is seen[0] for rhs in seen)


# The six (variant, PD flavor) pairs of the phase model.
PHASE_PDS = [LoopVariant(tag, flavor) for tag, flavor in (
    (VariantTag.CONVENTIONAL_BPSK, PdFlavor.MUL_MUL),
    (VariantTag.CONVENTIONAL_QPSK, PdFlavor.SGN_CROSS),
    (VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_PHASE),
    (VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG),
    (VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_PHASE),
    (VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG),
)]
INLINE_METHODS = {
    "rk4": dict(t_end=1e-4, method="rk4", h=1e-7),
    # the portrait's tolerances, at which conventional QPSK's PD jump makes
    # the step underflow
    "rk45": dict(t_end=1e-4, method="rk45", rtol=1e-9, atol=1e-11),
}


def _phase_run(rhs, state0, controls):
    """A run's bytes and counters, or the StiffnessError or ValueError it
    raised."""
    try:
        traj = integrate(rhs, state0, IntegratorConfig(**controls))
    except (StiffnessError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (traj.t.tobytes(), traj.y.tobytes(), traj.rhs_calls, traj.rejected_steps,
            traj.blown_up)


@pytest.fixture(scope="module")
def inline_runs():
    """For each PD, m in (1, 1e160) and method: the runs from four states
    on the bound classic_rhs (inline steppers) and on a function around it
    (generic steppers), in pairs, and how many of the function's calls
    raised.

    The fourth state starts theta_e 1e303 inside the float range of the
    PD's argument, at a slope near -2e307: about halfway to t_end a stage's
    fn raises or the state overflows.  At m = 1e160 conventional BPSK's
    slope is not finite at the start (0.5*m*m overflows)."""
    runs = {}
    for variant in PHASE_PDS:
        params = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=LoopVariant(variant.tag)))
        params = params.with_offset(TWO_PI * 60e3)
        for m in (1.0, 1e160):
            model = ClassicPhaseModel(params, PdCharacteristic(variant, m))
            freq = model.pd.kernel[1]
            states = [(0.0, 0.3), (0.0, 1.0), (0.0, -2.0),
                      ((params.delta_omega0 + 2e307) * params.tau1 / params.k0,
                       -sys.float_info.max / freq + 1e303)]
            raised = [0]

            def generic(t, y, model=model, raised=raised):
                try:
                    return classic_rhs(model, t, y)
                except (ArithmeticError, ValueError):
                    raised[0] += 1
                    raise

            for method, controls in INLINE_METHODS.items():
                raised[0] = 0
                pairs = [(_phase_run(MethodType(classic_rhs, model), s0, controls),
                          _phase_run(generic, s0, controls)) for s0 in states]
                runs[variant, m, method] = pairs, raised[0]
    return runs


class TestInlinePhaseSteppers:
    """``integrate`` runs the bound original ``classic_rhs`` on steppers
    that compute its slope inline, and any other rhs on the generic ones:
    the same bytes, counters and errors either way."""

    @pytest.mark.parametrize("method", sorted(INLINE_METHODS))
    @pytest.mark.parametrize("m", [1.0, 1e160])
    @pytest.mark.parametrize("variant", PHASE_PDS,
                             ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}")
    def test_same_as_generic(self, inline_runs, variant, m, method):
        for inline, generic in inline_runs[variant, m, method][0]:
            assert inline == generic

    def test_runs_reach_every_exit(self, inline_runs):
        outcomes = [inline for pairs, _ in inline_runs.values() for inline, _ in pairs]
        kinds = {out[0] if isinstance(out[0], str) else ("blown_up" if out[4] else "ok")
                 for out in outcomes}
        assert kinds == {"ok", "blown_up", "StiffnessError", "ValueError"}
        # a mid-run blow-up, with accepted steps before it
        assert any(out[4] and len(out[0]) > 8 * 100 for out in outcomes
                   if not isinstance(out[0], str))
        # a stage call whose fn raised
        assert sum(raised for _, raised in inline_runs.values()) > 0

    def test_qpsk_pd_jump_stiffness_error(self, inline_runs):
        inline, generic = inline_runs[PHASE_PDS[1], 1.0, "rk45"][0][0]
        assert inline == generic == ("StiffnessError", "step size underflow at t=2.34563e-06")

    @staticmethod
    def _code_calls(rhs, method):
        """A pitfall run's rhs_calls, and its Python calls of classic_rhs's
        code."""
        code, calls = classic_rhs.__code__, [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[0] += 1

        config = IntegratorConfig(t_end=20.0, method=method, h=2e-2)
        sys.setprofile(profile)
        try:
            traj = integrate(rhs, PITFALL_STATE0, config)
        finally:
            sys.setprofile(None)
        return traj.rhs_calls, calls[0]

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_bound_rhs_called_once(self, method):
        rhs_calls, code_calls = self._code_calls(
            MethodType(classic_rhs, pitfall_example_model()), method)
        assert code_calls == 1 and rhs_calls > 1000

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("bound", ["rebound", "not_a_model"])
    def test_other_rhs_called_at_every_slope(self, method, bound):
        # a copy of classic_rhs, or the original bound to something that is
        # not a ClassicPhaseModel, runs on the generic steppers
        model = pitfall_example_model()
        if bound == "rebound":
            rhs = MethodType(FunctionType(classic_rhs.__code__, classic_rhs.__globals__), model)
        else:
            rhs = MethodType(classic_rhs, SimpleNamespace(_rhs_consts=model._rhs_consts))
        rhs_calls, code_calls = self._code_calls(rhs, method)
        assert code_calls == rhs_calls > 1000
        assert rhs_calls == self._code_calls(MethodType(classic_rhs, model), method)[0]

    # The built RK45 tests no slope as it goes.  The first two cases swap
    # the pitfall model's PD function for one that gives NaN past
    # 2*theta_e = -6, which the run reaches within 5 ms: an attempt whose
    # stage state crosses it has a NaN slope there, where the generic
    # stepper stops.  The built one runs on, to the end of the attempt
    # (sin(nan) is NaN) or to the next stage, which raises (floor(nan)
    # does).  From (1.1e306, 0.0) every slope is finite, near -1.6e308, and
    # only the sums of the solution overflow.
    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("case", ["nan_completes", "nan_then_raises", "solution_only"])
    def test_nonfinite_attempts_same_as_generic_and_reference(self, case, tol):
        raised = []

        def nan_past(v):
            if case == "nan_then_raises" and math.isnan(v):
                raised.append(v)
                math.floor(v)
            return math.nan if v > -6.0 else math.sin(v)

        model, state0 = pitfall_example_model(), PITFALL_STATE0
        if case == "solution_only":
            state0 = (1.1e306, 0.0)
        else:
            object.__setattr__(model, "_rhs_consts", model._rhs_consts[:-1] + (nan_past,))
        controls = dict(t_end=1.0, method="rk45", rtol=tol, atol=1e-2 * tol)
        built = _phase_run(MethodType(classic_rhs, model), state0, controls)
        built_raised, slopes = len(raised), []

        def generic(t, y):
            slopes.extend(classic_rhs(model, t, y))
            return slopes[-2:]

        assert built == _phase_run(generic, state0, controls)
        ref = _ref_integrate(lambda t, y: classic_rhs(model, t, y), state0,
                             IntegratorConfig(**controls))
        assert built == (ref.t.tobytes(), ref.y.tobytes(), ref.rhs_calls, ref.rejected_steps,
                         ref.blown_up)
        # each run ends blown up; the generic stepper never raised, and it
        # stopped attempts short of six calls exactly where a slope was NaN
        attempts = len(ref.t) - 1 + ref.rejected_steps
        assert ref.blown_up and len(raised) == built_raised
        assert (ref.rhs_calls < 1 + 6 * attempts) == (case != "solution_only")
        assert all(map(math.isfinite, slopes)) == (case == "solution_only")
        assert (built_raised > 0) == (case == "nan_then_raises")


# a stepper with one good stage call before the line under test (line 5)
_STEPPER_SOURCE = '''
def steps(rhs, a, b, t):
    """Doc."""
    p1, q1 = rhs(t, (a, b + 1.0))
    {line}
    return p1, q1
'''


def _stepper_from(tmp_path, line):
    """``steps`` of :data:`_STEPPER_SOURCE` with ``line``, loaded from a file
    (the build reads a stepper's source)."""
    path = tmp_path / "steppers.py"
    path.write_text(_STEPPER_SOURCE.format(line=line))
    spec = importlib.util.spec_from_file_location("steppers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.steps


class _StageError(Exception):
    pass


class TestInlineBuild:
    """``ode._inline_phase`` builds the phase-model steppers from the generic
    ones: the stage calls written out on ``consts``, nothing else changed."""

    GENERIC = [ode._rk4_steps, ode._rk45_steps]

    @pytest.mark.parametrize("steps", GENERIC, ids=lambda f: f.__name__)
    def test_built_stepper_refers_to_no_rhs(self, steps):
        built = ode._inline_phase(steps).__code__
        assert "rhs" in steps.__code__.co_varnames and built.co_varnames[0] == "consts"
        codes = [built, *(c for c in built.co_consts if isinstance(c, CodeType))]
        assert all("rhs" not in c.co_names + c.co_varnames + c.co_freevars for c in codes)

    def test_built_steppers_keep_no_cells_and_rk45_no_slope_tests(self):
        # a cell variable turns each load of its name into a LOAD_DEREF; the
        # built RK45 leaves its finiteness tests to its reject path
        for steps in self.GENERIC:
            built = ode._inline_phase(steps).__code__
            assert built.co_cellvars == built.co_freevars == ()

        def nonfinite_raises(func):
            ops = list(dis.get_instructions(func))
            return sum(op.opname == "LOAD_GLOBAL" and op.argval == "_NonFinite"
                       and after.opname == "RAISE_VARARGS" for op, after in zip(ops, ops[1:]))

        assert nonfinite_raises(ode._inline_phase(ode._rk45_steps)) == 0
        assert nonfinite_raises(ode._rk45_steps) == 7

    def test_generic_rk45_tests_each_slope_and_the_solution(self):
        # right after the statement that computes it, so that an rhs sees
        # no call after a non-finite slope
        tree = ast.parse(textwrap.dedent(inspect.getsource(ode._rk45_steps)))
        attempt = next(node for node in ast.walk(tree) if isinstance(node, ast.Try)).body
        pairs = [(f"p{k}", f"q{k}") for k in range(2, 8)] + [("a5", "b5")]
        tests = [(ast.unparse(before), ast.unparse(node))
                 for before, node in zip(attempt, attempt[1:]) if isinstance(node, ast.If)]
        assert [test for _, test in tests] == [
            f"if not (ninf < {p} < inf and ninf < {q} < inf):\n    raise _NonFinite"
            for p, q in pairs]
        assert [before.split(" = ")[0] for before, _ in tests] == \
            [f"{p}, {q}" for p, q in pairs[:-1]] + ["b5"]

    def test_stage_call_written_out_as_classic_rhs(self, tmp_path):
        model = pitfall_example_model()
        built = ode._inline_phase(_stepper_from(tmp_path, "pass"))
        assert built(model._rhs_consts, 0.25, -1.5, 0.0) == classic_rhs(model, 0.0, (0.25, -0.5))

    @pytest.mark.parametrize("line", [
        "f = rhs(t, (a, b))",
        "p2, q2 = rhs(t, y)",
        "p2, q2 = rhs(t, (a, b), 1)",
        "p2, q2 = rhs(t, y=(a, b))",
        "p2 = q2 = rhs(t, (a, b))",
        "(p2, q2), = [rhs(t, (a, b))]",
        "p2, q2 = rhs(t, (a, b))[::-1]",
        "g = rhs",
    ])
    def test_other_rhs_use_refused(self, tmp_path, line):
        # the good stage on line 4 is written out; the build refuses, so no
        # stepper with a stray call is returned
        with pytest.raises(ValueError, match=r"^steps line 5: rhs not in pN, qN = rhs"):
            ode._inline_phase(_stepper_from(tmp_path, line))

    @pytest.mark.parametrize("steps", GENERIC, ids=lambda f: f.__name__)
    def test_stage_error_traceback_in_generic_source(self, steps):
        def fn(v):
            raise _StageError

        consts = pitfall_example_model()._rhs_consts[:-1] + (fn,)
        config = IntegratorConfig(t_end=1.0, method="rk4" if steps is ode._rk4_steps else "rk45")
        with pytest.raises(_StageError) as info:
            ode._inline_phase(steps)(consts, 0.0, 0.0, 1.0, 1.0, config, [0.0], [0.0], [0.0])
        frame = traceback.extract_tb(info.value.__traceback__)[-2]
        lines, first = inspect.getsourcelines(steps)
        assert frame.filename == ode.__file__
        assert first <= frame.lineno < first + len(lines)
        # the first stage call of the generic stepper
        assert frame.line.startswith("p2, q2 = rhs(")

    def test_nothing_built_by_import_design_or_predict(self, tmp_path):
        # neither the phase steppers nor signal_sim's sample-loop kernels
        code = ("import costas_lab\n"
                "from costas_lab import cli, ode, signal_sim\n"
                "built = [ode._inline_phase, signal_sim._kernel_loop]\n"
                "assert [b.cache_info().currsize for b in built] == [0, 0]\n"
                f"p = {str(tmp_path / 'p.json')!r}\n"
                "assert cli.main(['design', '--variant', 'bpsk', '--f0', '400e3', "
                "'--fs', '100e3', '-o', p]) == 0\n"
                "assert cli.main(['predict', '--params', p, '--variant', 'bpsk']) == 0\n"
                "print(*[b.cache_info().currsize for b in built])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(ode.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 0"


class TestLockVerdict:
    def test_settled_trajectory_locked(self, bpsk_design):
        model = ClassicPhaseModel(bpsk_design, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))

        def rhs(t, y):
            return np.array(classic_rhs(model, t, (y[0], y[1])))

        traj = integrate(rhs, (0.0, 0.2),
                         IntegratorConfig(t_end=200e-6, method="rk45"))
        assert lock_verdict(traj, rhs, bpsk_design, CONVENTIONAL_BPSK)

    def test_blow_up_never_locked(self, bpsk_design):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), blown_up=True)
        assert not lock_verdict(traj, harmonic_rhs, bpsk_design, CONVENTIONAL_BPSK)

    def test_rhs_gets_float_tuples(self, monkeypatch):
        # the rhs contract holds in the verdict and the classifier too: the
        # state is a tuple of two floats, the time a float
        seen = set()

        def recorded(model, t, y):
            seen.add((type(t), type(y), len(y), *map(type, y)))
            return classic_rhs(model, t, y)

        monkeypatch.setattr(baseband, "classic_rhs", recorded)
        model = pitfall_example_model()
        labels = [c.label for c in classified(model, [(model.equilibrium_x(), 0.3),
                                                      PITFALL_STATE0], 15.0)]
        assert labels == ["eq", "cycle"]     # a lock verdict, then a rate series
        assert seen == {(float, tuple, 2, float, float)}


def _scan_lock_verdict(traj, rhs, params, variant):
    """lock_verdict as a sample-by-sample scan: the oracle of its numpy
    phase check."""
    if traj.blown_up:
        return False
    period = pd_period(variant)
    tol_f = 1e-3 * (params.omega_n if params.omega_n > 0 else params.k0)
    mask = traj.t >= (1.0 - ode.LOCK_TAIL) * traj.t[-1]
    if not np.any(mask):
        return False
    for ti, yi in zip(traj.t[mask].tolist(), traj.y[mask].tolist()):
        if abs(wrap_phase(yi[1], period)) > ode.LOCK_TOL_P:
            return False
        if abs(rhs(ti, tuple(yi))[1]) > tol_f:
            return False
    return True


@pytest.fixture(scope="module")
def verdict_cases():
    """Trajectories whose tails lock, leave the phase tolerance, or leave the
    rate tolerance first, each with an rhs."""
    model = pitfall_example_model()
    rhs = MethodType(classic_rhs, model)
    cases = {}
    for h in PITFALL_H_LIST[:2]:
        cases[f"pitfall-{h}"] = (integrate(rhs, PITFALL_STATE0, IntegratorConfig(
            t_end=PITFALL_T_END, method="rk4", h=h)), rhs)
    cases["eq"] = (integrate(rhs, (model.equilibrium_x(), 0.3),
                             IntegratorConfig(t_end=15.0, rtol=1e-9, atol=1e-11)), rhs)

    def still(t, y):
        return (0.0, 0.0)

    def late_rate(t, y):                 # out of the 0.012 rate tolerance from t = 0.95
        return (0.0, 0.02 * (t > 0.95))

    t = np.linspace(0.0, 1.0, 101)
    for name, theta, rate in [
        ("locked", np.full(101, math.pi), still),          # on the lock point pi
        ("phase_out", np.where(t > 0.9, 0.06, -0.01), late_rate),
        ("rate_out", np.where(t > 0.97, 0.06, 0.0), late_rate),   # the rate fails first
        ("tie", np.full(101, ode.LOCK_TOL_P), late_rate),  # in tolerance: not above it
    ]:
        cases[name] = (Trajectory(t, np.column_stack((np.zeros(101), theta))), rate)
    return cases


class TestLockVerdictScan:
    @pytest.mark.parametrize("case", ["pitfall-0.02", "pitfall-0.01", "eq", "locked",
                                      "phase_out", "rate_out", "tie"])
    def test_same_verdict_and_rhs_calls_as_scan(self, verdict_cases, case):
        traj, rhs = verdict_cases[case]
        model = pitfall_example_model()
        runs = []
        for verdict in (lock_verdict, _scan_lock_verdict):
            seen = []

            def recorded(t, y):
                seen.append((t, *y))
                return rhs(t, y)

            runs.append((verdict(traj, recorded, model.params, CONVENTIONAL_BPSK),
                         np.array(seen).tobytes(), len(seen)))
        assert runs[0] == runs[1]
        if case in ("pitfall-0.02", "eq", "locked"):
            assert runs[0][0] is True


def _loop_autocorr_peak(x, min_lag):
    """_autocorr_peak as a loop over the lags: the oracle of its numpy form."""
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


def _autocorr_inputs():
    rng = np.random.default_rng(16)
    inputs = []
    for k in range(60):
        n = int(rng.integers(16, 4097))
        kind = k % 4
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 1:                  # a cycle: peaks near 1
            x = np.sin(rng.uniform(0.01, 0.5) * np.arange(n)) + 0.01 * rng.normal(size=n)
        elif kind == 2:
            x = np.repeat(rng.normal(size=n // 16 + 1), 16)[:n]
        else:
            x = rng.normal(size=n).cumsum()
        inputs.append((x, int(rng.integers(0, 20))))
    return inputs


class TestAutocorrPeak:
    @pytest.mark.parametrize("i", range(60))
    def test_same_as_loop(self, i):
        x, min_lag = _autocorr_inputs()[i]
        got = ode._autocorr_peak(x, min_lag)
        assert type(got) is float
        assert got.hex() == _loop_autocorr_peak(x, min_lag).hex()

    def test_all_correlations_negative(self):
        # a unit impulse less its mean correlates to -lag/n**2 at every lag
        x = np.zeros(100)
        x[0] = 1.0
        assert ode._autocorr_peak(x, 1) == _loop_autocorr_peak(x, 1) == 0.0

    def test_zero_energy_lags(self):
        # zero mean, so the zeros stay zero: x[lag:] has no energy from lag 12
        x = np.zeros(64)
        x[[0, 1, 2, 3, 10, 11]] = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        for min_lag in (1, 8, 12):
            got = ode._autocorr_peak(x, min_lag)
            assert got.hex() == _loop_autocorr_peak(x, min_lag).hex()
        assert ode._autocorr_peak(x, 12) == 0.0 < ode._autocorr_peak(x, 8)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("x,min_lag", [
        (np.ones(50), 1), (np.arange(10.0), 6),
        (np.where(np.arange(200) == 5, math.nan, np.sin(0.3 * np.arange(200))), 8),
        (np.where(np.arange(200) == 5, math.inf, np.sin(0.3 * np.arange(200))), 8),
        (1e200 * np.sin(0.3 * np.arange(200)), 8),
    ], ids=["constant", "no-lags", "nan", "inf", "overflow"])
    def test_nothing_to_correlate(self, x, min_lag):
        # NaN correlations never win, as they cannot win a max()
        assert ode._autocorr_peak(x, min_lag) == _loop_autocorr_peak(x, min_lag) == 0.0

    def test_underflowing_energy_product_is_skipped(self):
        # the energies are subnormal and their product is 0: the loop
        # divided by zero there, the numpy form skips the lag
        x = 1e-160 * np.sin(0.3 * np.arange(200))
        with pytest.raises(ZeroDivisionError):
            _loop_autocorr_peak(x, 8)
        assert ode._autocorr_peak(x, 8) == 0.0
