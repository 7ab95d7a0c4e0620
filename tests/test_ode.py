import math

import numpy as np
import pytest

from costas_lab import CONVENTIONAL_BPSK, ClassicPhaseModel, baseband, classic_rhs
from costas_lab.core import count_cycle_slips
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
            return np.array(classic_rhs(model, (y[0], y[1])))

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
            return np.array(classic_rhs(model, (y[0], y[1])))

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
            return np.array([y[0] ** 2])

        cfg = IntegratorConfig(t_end=10.0, method="rk4", h=0.1)
        traj = integrate(rhs, (1.0,), cfg)
        assert traj.blown_up
        assert traj.t[-1] < 10.0

    def test_nonfinite_initial_rhs_rejected(self):
        def rhs(t, y):
            return np.array([math.inf])

        with pytest.raises(ValueError):
            integrate(rhs, (1.0,), IntegratorConfig(t_end=1.0))

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
    def test_rk45_nan_error_raises_instead_of_spinning(self):
        # y' = y^2 blows up at t = 1; near it the error estimate turns NaN
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            if calls[0] > 100_000:
                raise RuntimeError("controller spins")
            return np.array([y[0] ** 2])

        with pytest.raises(StiffnessError):
            integrate(rhs, (1.0,), IntegratorConfig(t_end=10.0, rtol=1e-6))

    def test_rhs_length_must_match_state(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: (0.0,), (1.0, 0.0), IntegratorConfig(t_end=1.0))


# --- the rhs contract ----------------------------------------------------------

def _drift_2d(t, y):
    """Pitfall-model slope: slips under RK4 at h = 2e-2 and under RK45."""
    return classic_rhs(PITFALL_MODEL, y)


def _drift_1d(t, y):
    return (0.9 + 0.5 * math.sin(y[0]),)


PITFALL_MODEL = pitfall_example_model()
CONTRACT_CASES = {               # rhs, state0, phase component, t_end
    "2d": (_drift_2d, PITFALL_STATE0, 1, 20.0),
    "1d": (_drift_1d, (0.0,), 0, 30.0),
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


@pytest.fixture(scope="module")
def counted_probe():
    """The pitfall probe, with every ``baseband.classic_rhs`` call counted
    through a rebinding of the module name."""
    calls = [0]

    def counted(model, state):
        calls[0] += 1
        return classic_rhs(model, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseband, "classic_rhs", counted)
        report = step_sensitivity_probe(pitfall_example_model(), PITFALL_STATE0,
                                        PITFALL_H_LIST, PITFALL_T_END)
    return report, calls[0]


@pytest.fixture(scope="module")
def report(counted_probe):
    return counted_probe[0]


@pytest.fixture(scope="module")
def portrait():
    model = pitfall_example_model()
    xeq = model.equilibrium_x()
    states = [
        (xeq, 0.3), (xeq, -0.25), (xeq * 1.02, 0.0),
        PITFALL_STATE0, (0.0125, 0.4), (0.002, 1.0),
    ]
    return phase_portrait(model, states, t_end=15.0)


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
        assert counted_probe[1] == 1_014_619 - 126_500


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
        a = phase_portrait(model, states, t_end=12.0)
        b = phase_portrait(model, states[::-1], t_end=12.0)
        la = {c.state0: c.label for c in a}
        lb = {c.state0: c.label for c in b}
        assert la == lb

    def test_zero_detuning_all_converge(self):
        base = pitfall_example_model(delta_omega0=0.0)
        states = [(0.0, 0.4), (0.0, -0.6), (0.001, 1.0)]
        port = phase_portrait(base, states, t_end=8.0)
        assert {c.label for c in port} == {"eq"}


class TestLockVerdict:
    def test_settled_trajectory_locked(self, bpsk_design):
        model = ClassicPhaseModel(bpsk_design, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))

        def rhs(t, y):
            return np.array(classic_rhs(model, (y[0], y[1])))

        traj = integrate(rhs, (0.0, 0.2),
                         IntegratorConfig(t_end=200e-6, method="rk45"))
        assert lock_verdict(traj, rhs, bpsk_design, CONVENTIONAL_BPSK)

    def test_blow_up_never_locked(self, bpsk_design):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), blown_up=True)
        assert not lock_verdict(traj, harmonic_rhs, bpsk_design, CONVENTIONAL_BPSK)
