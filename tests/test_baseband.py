import math
from dataclasses import fields, replace

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    ClassicPhaseModel,
    DelayModel,
    LoopParams,
    LoopVariant,
    averaged_ud,
    baseband,
    classic_rhs,
    delay_rhs,
    lock_in_range,
    pd_period,
    phi_bpsk,
    phi_qpsk,
    pull_in_range,
    pull_in_time,
    pull_in_time_formula,
)
from costas_lab.analysis import (DesignError, RangeError, averaged_pull_in_time_numeric,
                                 total_phase_lag)
from costas_lab.core import PdFlavor, VariantTag
from costas_lab.detectors import PdCharacteristic
from costas_lab.ode import IntegratorConfig, integrate

TWO_PI = 2.0 * math.pi


def bpsk_model(params):
    return ClassicPhaseModel(params, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))


class TestClassicRhs:
    def test_lock_fixed_point(self, bpsk_design):
        m = bpsk_model(bpsk_design)
        assert classic_rhs(m, 0.0, (0.0, 0.0)) == (0.0, 0.0)

    def test_direct_substitution(self, bpsk_design):
        p = bpsk_design
        m = bpsk_model(p)
        dx, dth = classic_rhs(m, 0.0, (0.0, math.pi / 4))
        assert dx == pytest.approx(0.5)
        assert dth == pytest.approx(-p.k0 * p.tau2 / (2 * p.tau1))

    def test_linearization_matches_second_order_form(self, bpsk_design):
        p = bpsk_design
        m = bpsk_model(p)
        h = 1e-6
        jac = np.zeros((2, 2))
        for j, e in enumerate(np.eye(2)):
            plus = np.array(classic_rhs(m, 0.0, (h * e[0], h * e[1])))
            minus = np.array(classic_rhs(m, 0.0, (-h * e[0], -h * e[1])))
            jac[:, j] = (plus - minus) / (2 * h)
        analytic = np.array(
            [[0.0, p.kd], [-p.k0 / p.tau1, -p.k0 * p.kd * p.tau2 / p.tau1]]
        )
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(jac - analytic)) / scale < 1e-5
        # characteristic polynomial s^2 + 2 zeta wn s + wn^2
        tr, det = np.trace(jac), np.linalg.det(jac)
        assert -tr == pytest.approx(2 * p.zeta * p.omega_n, rel=1e-5)
        assert det == pytest.approx(p.omega_n**2, rel=1e-5)


VARIANT_FLAVORS = [("bpsk", None), ("qpsk", None),
                   ("mod_bpsk", "complex_phase"), ("mod_bpsk", "complex_imag"),
                   ("mod_qpsk", "complex_phase"), ("mod_qpsk", "complex_imag")]


def _phi_documented(variant, m, theta_e):
    """The PD characteristic as detectors.py documents it, dispatched on
    the variant tag and flavor at every call."""
    if variant.tag is VariantTag.CONVENTIONAL_BPSK:
        return phi_bpsk(theta_e, m)
    if variant.tag is VariantTag.CONVENTIONAL_QPSK:
        return phi_qpsk(theta_e, m)
    period = math.pi / 2.0 if variant.is_qpsk else math.pi
    r = theta_e - period * math.floor(theta_e / period + 0.5)
    if r <= -period / 2.0:
        r += period
    if variant.pd_flavor is PdFlavor.COMPLEX_IMAG:
        gain = 2.0 * m if variant.is_qpsk else m
        return gain * math.sin(r)
    return r


def _probe_states(variant):
    """Seeded states plus the PD jump and tie points of the variant, and
    the non-finite phases."""
    rng = np.random.default_rng(8)
    period = pd_period(variant)
    thetas = list(rng.uniform(-4 * math.pi, 4 * math.pi, 200))
    thetas += [s * period / 2 + k * period for s in (-1, 1) for k in range(-3, 4)]
    thetas += [-math.pi / 4, math.pi / 4, 0.0, -0.0]
    xs = rng.uniform(-2e-5, 2e-5, len(thetas))
    states = [(float(x), float(th)) for x, th in zip(xs, thetas)]
    return states + [(0.0, math.inf), (0.0, -math.inf), (0.0, math.nan), (1e-5, math.nan)]


def _outcome(fn, *args):
    """The bytes of the floats ``fn(*args)`` returns, or the type and
    message of the float error it raises."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestBoundRhs:
    """``classic_rhs`` and ``PdCharacteristic.phi`` read constants bound at
    construction; their floats must be the textbook expressions' bit for
    bit, and so must what they raise: at theta_e = +-inf and NaN, and at an
    m whose 0.5*m*m overflows (1e160)."""

    @pytest.mark.parametrize("m", [0.3, 1.0, 1.7, 1e160])
    @pytest.mark.parametrize("name,flavor", VARIANT_FLAVORS)
    def test_bit_identical_to_textbook(self, bpsk_design, name, flavor, m):
        variant = LoopVariant.from_name(name, flavor)
        pd = PdCharacteristic(variant, m)
        p = bpsk_design.with_offset(TWO_PI * 37e3)
        model = ClassicPhaseModel(p, pd)
        scale, freq, fn = pd.kernel

        def textbook(x, th):
            phi = _phi_documented(variant, m, th)
            return phi, p.delta_omega0 - p.k0 * (x / p.tau1 + (p.tau2 / p.tau1) * phi)

        got, want, phis, kernel, documented = [], [], [], [], []
        for x, th in _probe_states(variant):
            got.append(_outcome(classic_rhs, model, 0.0, (x, th)))
            want.append(_outcome(textbook, x, th))
            phis.append(_outcome(pd.phi, th))
            kernel.append(_outcome(lambda v: scale * fn(freq * v), th))
            documented.append(_outcome(_phi_documented, variant, m, th))
        assert got == want
        assert phis == kernel == documented

    def test_edge_outcomes(self, bpsk_design):
        # what the bit-for-bit checks cover at the edges, for bpsk
        unit = bpsk_model(bpsk_design)
        with pytest.raises(ValueError, match="math domain error"):
            classic_rhs(unit, 0.0, (0.0, -math.inf))
        assert all(math.isnan(v) for v in classic_rhs(unit, 0.0, (0.0, math.nan)))
        big = ClassicPhaseModel(bpsk_design, PdCharacteristic(CONVENTIONAL_BPSK, 1e160))
        assert big.pd.kernel[0] == math.inf
        assert classic_rhs(big, 0.0, (0.0, 0.3)) == (math.inf, -math.inf)
        assert all(math.isnan(v) for v in classic_rhs(big, 0.0, (0.0, 0.0)))

    def test_bpsk_kernel_is_the_builtin_sine(self):
        # no Python frame between classic_rhs and math.sin
        assert PdCharacteristic(CONVENTIONAL_BPSK, 0.3).kernel == (0.5 * 0.3 * 0.3, 2.0, math.sin)

    @pytest.mark.parametrize("name,flavor", VARIANT_FLAVORS)
    def test_bound_constants_stay_out_of_eq_hash_repr(self, bpsk_design, name, flavor):
        variant = LoopVariant.from_name(name, flavor)
        p, pd = bpsk_design, PdCharacteristic(variant, 1.7)
        a = ClassicPhaseModel(p, pd)
        b = ClassicPhaseModel(p, PdCharacteristic(variant, 1.7))
        assert [f.name for f in fields(ClassicPhaseModel)] == ["params", "pd"]
        assert [f.name for f in fields(PdCharacteristic)] == ["variant", "m"]
        assert a == b and hash(a) == hash(b) == hash((p, pd))
        assert hash(pd) == hash((variant, 1.7))
        assert repr(a) == f"ClassicPhaseModel(params={p!r}, pd={pd!r})"
        assert repr(pd) == f"PdCharacteristic(variant={variant!r}, m=1.7)"
        assert a != ClassicPhaseModel(p, PdCharacteristic(variant, 0.3))

    def test_replace_rebinds(self, bpsk_design):
        a = bpsk_model(bpsk_design)
        b = replace(a, params=bpsk_design.with_offset(TWO_PI * 10e3),
                    pd=PdCharacteristic(CONVENTIONAL_BPSK, 0.5))
        q = b.params
        assert classic_rhs(b, 0.0, (0.0, math.pi / 4)) == (
            0.125, q.delta_omega0 - q.k0 * (0.0 / q.tau1 + (q.tau2 / q.tau1) * 0.125))


def delay_states(p, count):
    """``count`` seeded states (x, theta_e) and seed rates for the delay model."""
    rng = np.random.default_rng(0xD1CE)
    for _ in range(count):
        x = rng.normal() * 5.0 * p.delta_omega0 * p.tau1 / p.k0
        yield x, rng.uniform(-math.pi, math.pi), rng.normal() * 1e5


def delay_rate_oracle(dm, x, th):
    """The delay model's phase-error rate by plain bisection of g(v) - v
    to adjacent floats, on the bracket that |phi| <= 2 gives at m = 1."""
    p = dm.params
    base = p.delta_omega0 - p.k0 * x / p.tau1
    gain = p.k0 * p.tau2 / p.tau1

    def g(v):
        return base - gain * dm.pd.phi(th - math.atan(v / p.omega3))

    lo, hi = base - 2.0 * gain, base + 2.0 * gain
    flo = g(lo) - lo
    assert flo * (g(hi) - hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = g(mid) - mid
        if fm * flo <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestDelayRhs:
    def test_zero_rate_reduces_to_classic(self, bpsk_reference_params):
        p = bpsk_reference_params
        dm = DelayModel(p, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))
        cm = bpsk_model(p)
        # pick a state where the self-consistent rate is ~0:
        # theta_e = pi/4 maximizes phi; choose x so base cancels gain*phi
        x = (p.delta_omega0 - p.k0 * p.tau2 / p.tau1 * 0.5) * p.tau1 / p.k0
        dx_d, dth_d = delay_rhs(dm, (x, math.pi / 4), 0.0)
        dx_c, dth_c = classic_rhs(cm, 0.0, (x, math.pi / 4))
        assert dth_c == pytest.approx(0.0, abs=1e-9)
        assert dth_d == pytest.approx(0.0, abs=1e-6)
        assert dx_d == pytest.approx(dx_c, rel=1e-9)

    def test_quarter_lag_at_corner_rate(self):
        # rate equal to the LPF corner shifts the doubled angle by
        # 2*arctan(1) = pi/2: sin(2 theta - pi/2)/2 = -cos(2 theta)/2
        pd = PdCharacteristic(CONVENTIONAL_BPSK, 1.0)
        for theta in (0.0, 0.3, 1.1):
            lagged = pd.phi(theta - math.atan(1.0))
            assert lagged == pytest.approx(-0.5 * math.cos(2 * theta))

    def test_converged_rate_is_self_consistent(self, bpsk_reference_params):
        p = bpsk_reference_params
        dm = DelayModel(p, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))
        x, th = 1e-6, 0.7
        dx, v = delay_rhs(dm, (x, th), p.delta_omega0)
        base = p.delta_omega0 - p.k0 * x / p.tau1
        gain = p.k0 * p.tau2 / p.tau1
        lag = -math.atan(v / p.omega3)
        assert v == pytest.approx(base - gain * dm.pd.phi(th + lag), rel=1e-9)
        assert dx == pytest.approx(dm.pd.phi(th + lag), rel=1e-9)

    def test_fixed_point_matches_bisection_oracle(self, bpsk_reference_params):
        dm = DelayModel(bpsk_reference_params, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))
        for x, th, seed in delay_states(bpsk_reference_params, 100):
            _, v = delay_rhs(dm, (x, th), seed)
            oracle = delay_rate_oracle(dm, x, th)
            assert abs(v - oracle) <= 1e-8 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK])
    def test_bisection_fallback_matches_oracle(self, bpsk_reference_params,
                                               qpsk_reference_params, monkeypatch, variant):
        # no fixed-point step: every call solves by the bracket and bisection
        monkeypatch.setattr(baseband, "IMPLICIT_MAX_ITER", 0)
        p = qpsk_reference_params if variant.is_qpsk else bpsk_reference_params
        dm = DelayModel(p, PdCharacteristic(variant, 1.0))
        for x, th, seed in delay_states(p, 300):
            dx, v = delay_rhs(dm, (x, th), seed)
            oracle = delay_rate_oracle(dm, x, th)
            assert abs(v - oracle) <= 1e-9 * max(1.0, abs(oracle))
            assert dx == dm.pd.phi(th - math.atan(v / p.omega3))

    def test_nonfinite_seed_rejected(self, bpsk_reference_params):
        from costas_lab.baseband import ImplicitSolveError

        dm = DelayModel(bpsk_reference_params, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))
        with pytest.raises(ImplicitSolveError):
            delay_rhs(dm, (0.0, 0.1), math.inf)

    def test_requires_lpf_corner(self, modified_reference_params):
        # the modified loops' params carry no omega3
        with pytest.raises(ValueError, match="LPF corner omega3"):
            DelayModel(modified_reference_params, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))

    @pytest.mark.parametrize("variant", [MODIFIED_BPSK, MODIFIED_QPSK])
    def test_modified_variant_rejected(self, bpsk_reference_params, variant):
        # the modified loops have no LPF, whatever omega3 the params carry
        with pytest.raises(ValueError, match="conventional loops only"):
            DelayModel(bpsk_reference_params, PdCharacteristic(variant, 0.1))

    def test_converges_to_classic_for_wide_lpf(self, bpsk_reference_params):
        p_wide = LoopParams(
            bpsk_reference_params.omega1,
            bpsk_reference_params.omega_free - 314159.0,
            bpsk_reference_params.k0,
            bpsk_reference_params.kd,
            bpsk_reference_params.tau1,
            bpsk_reference_params.tau2,
            omega3=1e12,
        )
        pd = PdCharacteristic(CONVENTIONAL_BPSK, 1.0)
        dm = DelayModel(p_wide, pd)
        cm = ClassicPhaseModel(p_wide, pd)
        seed = [p_wide.delta_omega0]

        def rhs_delay(t, y):
            dx, dth = delay_rhs(dm, (y[0], y[1]), seed[0])
            seed[0] = dth
            return np.array([dx, dth])

        def rhs_classic(t, y):
            return np.array(classic_rhs(cm, t, (y[0], y[1])))

        cfg = IntegratorConfig(t_end=100e-6, method="rk45", rtol=1e-10, atol=1e-12)
        td = integrate(rhs_delay, (0.0, 0.0), cfg)
        tc = integrate(rhs_classic, (0.0, 0.0), cfg)
        grid = np.linspace(0, 100e-6, 400)
        thd = np.interp(grid, td.t, td.y[:, 1])
        thc = np.interp(grid, tc.t, tc.y[:, 1])
        assert np.max(np.abs(thd - thc)) < 1e-6


class TestAveragedModel:
    def test_zero_beat_rejected(self, bpsk_reference_params):
        with pytest.raises(RangeError):
            averaged_ud(CONVENTIONAL_BPSK, 0.0, bpsk_reference_params)

    @pytest.mark.parametrize("tag", [VariantTag.MODIFIED_BPSK, VariantTag.MODIFIED_QPSK])
    def test_imag_flavor_rejected(self, modified_reference_params, tag):
        # the averaged constants are the complex_phase PD's
        variant = LoopVariant(tag, PdFlavor.COMPLEX_IMAG)
        dw = TWO_PI * 100e3
        with pytest.raises(RangeError, match="not complex_imag"):
            averaged_ud(variant, dw, modified_reference_params)
        with pytest.raises(RangeError, match="not complex_imag"):
            averaged_pull_in_time_numeric(modified_reference_params, variant, dw)
        phase = LoopVariant(tag, PdFlavor.COMPLEX_PHASE)
        assert averaged_pull_in_time_numeric(modified_reference_params, phase, dw) > 0

    def test_bpsk_zero_at_pull_in_limit(self, bpsk_reference_params):
        p = bpsk_reference_params
        dwp = pull_in_range(p, CONVENTIONAL_BPSK)
        assert total_phase_lag(p, CONVENTIONAL_BPSK, dwp) == pytest.approx(
            -math.pi / 2, abs=1e-9
        )
        assert averaged_ud(CONVENTIONAL_BPSK, dwp, p) == pytest.approx(0.0, abs=1e-9)

    def test_bpsk_reference_value_formula(self, bpsk_reference_params):
        p = bpsk_reference_params
        dw = TWO_PI * 50e3
        expected = (
            p.k0 * p.kd**2 * p.k_h
            * math.cos(total_phase_lag(p, CONVENTIONAL_BPSK, dw))
            / (math.pi**2 * dw)
        )
        assert averaged_ud(CONVENTIONAL_BPSK, dw, p) == pytest.approx(expected)
        assert expected > 0

    def test_modified_no_polarity_reversal(self, modified_reference_params):
        p = modified_reference_params
        for dw in np.geomspace(1e3, 1e8, 40):
            assert averaged_ud(MODIFIED_BPSK, dw, p) > 0
            assert averaged_ud(MODIFIED_QPSK, dw, p) > 0

    def test_rhs_signs(self, bpsk_reference_params):
        p = bpsk_reference_params
        # d(delta_omega)/dt = -K0*ud/tau1, the rate the numeric pull-in time integrates
        def rate(dw):
            return -p.k0 * averaged_ud(CONVENTIONAL_BPSK, dw, p) / p.tau1

        dwl = lock_in_range(p, CONVENTIONAL_BPSK)
        assert rate(1.2 * dwl) < 0  # strong pull below the limit
        dwp = pull_in_range(p, CONVENTIONAL_BPSK)
        assert rate(dwp) == pytest.approx(0.0, abs=1e-3)

    def test_integrated_time_near_reference(self, bpsk_design):
        t = averaged_pull_in_time_numeric(bpsk_design, CONVENTIONAL_BPSK, 314000.0)
        assert t == pytest.approx(33e-6, rel=0.25)

    def test_numeric_vs_closed_form_within_band(self, bpsk_design):
        # the straight-line cosine approximation is weakest right above
        # the lock-in end, where the gap peaks at ~24%; the two routes
        # agree to leading order across the reference offsets
        for f, band in ((50e3, 0.25), (70e3, 0.20), (100e3, 0.20)):
            dw = TWO_PI * f
            t_num = averaged_pull_in_time_numeric(bpsk_design, CONVENTIONAL_BPSK, dw)
            t_closed = pull_in_time(bpsk_design, CONVENTIONAL_BPSK, dw)
            assert abs(t_num - t_closed) / t_closed < band

    def test_guard_below_lock_in(self, bpsk_design):
        dwl = lock_in_range(bpsk_design, CONVENTIONAL_BPSK)
        with pytest.raises(RangeError):
            averaged_pull_in_time_numeric(bpsk_design, CONVENTIONAL_BPSK, 0.9 * dwl)

    def test_bpsk_formula_against_beat_average(self, bpsk_reference_params):
        # time-domain cross-check: hold the beat quasi-stationary with a
        # weakened loop and average the PD output over 100 whole beat
        # periods; the beat-asymmetry estimate is crude, so the check is
        # sign plus factor-of-2.5 agreement (measured ratios 1.2-2.0)
        from costas_lab.signal_sim import DigitalLoop, ModulatedSource, run_loop

        b = bpsk_reference_params
        dw0 = TWO_PI * 50e3
        p = LoopParams(
            b.omega1, b.omega1 - dw0, b.k0 / 50.0, b.kd, b.tau1, b.tau2,
            omega3=b.omega3,
        )
        src = ModulatedSource(CONVENTIONAL_BPSK, 400e3, 100e3, data_mode="ones")
        r = run_loop(src, DigitalLoop(p, 3.2e6), 1.2e-3, signals=True)
        beat = math.pi / dw0
        sel = (r.t >= 2 * beat) & (r.t < 102 * beat)
        measured = float(r.ud[sel].mean())
        formula = averaged_ud(CONVENTIONAL_BPSK, dw0, p)
        assert measured > 0 and formula > 0
        assert 0.4 < measured / formula < 2.5

    @pytest.mark.parametrize("variant", [MODIFIED_BPSK, MODIFIED_QPSK],
                             ids=["mod_bpsk", "mod_qpsk"])
    @pytest.mark.parametrize("kd", [1.0, 4.0])
    def test_modified_integral_is_the_closed_form(self, modified_reference_params, variant, kd):
        # the modified loops' averaged constant is Kd^2/(4c) with the
        # closed form's c, so the integral down to the lock-in range is the
        # closed form times 1 - (dw_L/dw0)^2; K0*Kd, hence omega_n and the
        # lock-in range, stays fixed while Kd changes
        b = modified_reference_params
        p = replace(b, k0=b.k0 * b.kd / kd, kd=kd)
        dw0 = TWO_PI * 150e3
        r = lock_in_range(p, variant) / dw0
        expected = pull_in_time_formula(p, variant, dw0) * (1.0 - r * r)
        assert averaged_pull_in_time_numeric(p, variant, dw0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("factor", [1.01, 2.0])
    def test_refused_past_the_pull_in_range(self, bpsk_design, qpsk_design, factor):
        # the closed form's pull-in-side check: past the range the averaged
        # integral gave a time (4.11 ms for bpsk at 1.01x) or a negative one
        for p, variant in ((bpsk_design, CONVENTIONAL_BPSK), (qpsk_design, CONVENTIONAL_QPSK)):
            dw0 = factor * pull_in_range(p, variant)
            with pytest.raises(RangeError, match="outside the pull-in range"):
                averaged_pull_in_time_numeric(p, variant, dw0)

    @pytest.mark.parametrize("variant", [MODIFIED_BPSK, MODIFIED_QPSK],
                             ids=["mod_bpsk", "mod_qpsk"])
    def test_overflowing_integral_refused(self, modified_reference_params, variant):
        # the integral from 2*pi*1e300 down to the lock-in range overflows
        # to inf: no pull-in time to return
        with pytest.raises(DesignError, match="pull_in_time_numeric = inf is out of range"):
            averaged_pull_in_time_numeric(modified_reference_params, variant, TWO_PI * 1e300)

    def test_qpsk_constant(self, qpsk_reference_params):
        p = qpsk_reference_params
        dw = TWO_PI * 40e3
        lag = total_phase_lag(p, CONVENTIONAL_QPSK, dw)
        expected = 0.373**2 * p.k0 * p.kd**2 * p.k_h * math.cos(lag) / dw
        assert averaged_ud(CONVENTIONAL_QPSK, dw, p) == pytest.approx(expected)
