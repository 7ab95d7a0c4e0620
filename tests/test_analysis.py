import math

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    DesignSpec,
    LoopParams,
    PdCharacteristic,
    design,
    hold_in_leadlag,
    hold_in_pi,
    lock_in_range,
    lock_time,
    pd_period,
    predict,
    pull_in_range,
    pull_in_range_numeric,
    pull_in_time,
    pull_in_time_formula,
)
from costas_lab.analysis import (
    DesignError,
    RangeError,
    leadlag_char_poly,
    round_sig,
    total_phase_lag,
)
from costas_lab.core import LoopVariant, PdFlavor, VariantTag

TWO_PI = 2.0 * math.pi


class TestDesign:
    def test_reference_bpsk_design(self, bpsk_design):
        p = bpsk_design
        assert p.tau2 == 4e-6
        assert abs(p.omega3 - 1256000.0) / 1256000.0 < 1e-3
        assert abs(p.k0 - 1262000.0) / 1262000.0 < 0.01
        assert abs(p.omega_n - 251200.0) / 251200.0 < 0.005
        assert abs(p.zeta - 0.5) / 0.5 < 0.005
        assert LoopParams.from_dict(p.to_dict()) == p

    def test_reference_qpsk_design(self, qpsk_design):
        assert abs(qpsk_design.k0 - 631000.0) / 631000.0 < 0.01
        assert qpsk_design.kd == 2.0

    def test_modified_has_no_lpf(self, mod_bpsk_design):
        assert mod_bpsk_design.omega3 is None
        assert mod_bpsk_design.kd == 1.0

    def test_doubling_tau1_doubles_k0_only(self):
        base = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_BPSK))
        double = design(
            DesignSpec(f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_BPSK, tau1=40e-6)
        )
        assert double.k0 == pytest.approx(2 * base.k0)
        assert double.omega_n == pytest.approx(base.omega_n)
        assert double.zeta == pytest.approx(base.zeta)

    def test_spec_validation(self):
        with pytest.raises(DesignError):
            DesignSpec(f0=100e3, f_symbol=200e3, variant=CONVENTIONAL_BPSK).validate()
        with pytest.raises(DesignError):
            DesignSpec(
                f0=400e3, f_symbol=100e3, variant=CONVENTIONAL_BPSK, omega_t_ratio=0.2
            ).validate()

    def test_round_sig(self):
        assert round_sig(3.97887e-6) == 4.0e-6
        assert round_sig(1.59155e-6) == 1.6e-6
        assert round_sig(0.0) == 0.0

    def test_open_loop_crossing_gain(self):
        # asymptotic 0 dB crossing at the corner, with the LPF correction
        for variant in (CONVENTIONAL_BPSK, CONVENTIONAL_QPSK):
            p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
            lpf = abs(1.0 / (1.0 + 1j * p.omega_c / p.omega3))
            gain = p.k0 * p.kd / (p.omega_c**2 * p.tau1) * lpf
            assert abs(gain - 1.0) < 0.02


class TestLockIn:
    def test_factors_exact(self, bpsk_design):
        zwn = bpsk_design.zeta * bpsk_design.omega_n
        assert lock_in_range(bpsk_design, CONVENTIONAL_BPSK) / zwn == pytest.approx(
            1.0, rel=1e-12
        )
        assert lock_in_range(bpsk_design, CONVENTIONAL_QPSK) / zwn == pytest.approx(
            math.sqrt(2), rel=1e-12
        )
        assert lock_in_range(bpsk_design, MODIFIED_BPSK) / zwn == pytest.approx(
            math.pi, rel=1e-12
        )
        assert lock_in_range(bpsk_design, MODIFIED_QPSK) / zwn == pytest.approx(
            math.pi / 2, rel=1e-12
        )

    @pytest.mark.parametrize("m", [1.0, 2.0])
    @pytest.mark.parametrize("variant", [
        CONVENTIONAL_BPSK, CONVENTIONAL_QPSK, MODIFIED_BPSK, MODIFIED_QPSK,
        LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG),
        LoopVariant(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG)],
        ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}")
    def test_factor_is_the_pd_peak(self, variant, m):
        # the lock-in range is the proportional path's largest correction,
        # K0*(tau2/tau1)*max|phi|, for every PD shape and amplitude; the
        # peak is taken over one PD period, edges included
        pd = PdCharacteristic(variant, m)
        p = LoopParams(0.0, 0.0, 1.262e6, pd.kd, 20e-6, 4e-6)
        period = pd_period(variant)
        peak = max(abs(pd.phi(th)) for th in np.linspace(-period / 2, period / 2, 4097))
        assert lock_in_range(p, variant) == pytest.approx(p.k0 * p.k_h * peak, rel=1e-12)

    def test_imag_flavor_report(self, mod_bpsk_design, mod_qpsk_design):
        # the sine-shaped PDs peak at 2 and sqrt2 times zeta*omega_n, the
        # conventional loops' factors, not at the sawtooth's pi and pi/2
        for p, tag, factor, formula in (
                (mod_bpsk_design, VariantTag.MODIFIED_BPSK, 2.0, "lock-in:2*zeta*omega_n"),
                (mod_qpsk_design, VariantTag.MODIFIED_QPSK, math.sqrt(2.0),
                 "lock-in:sqrt2*zeta*omega_n")):
            d = predict(p, LoopVariant(tag, PdFlavor.COMPLEX_IMAG))
            assert d["delta_omega_l"] == factor * p.zeta * p.omega_n
            assert d["lock_in_hz"] == d["delta_omega_l"] / TWO_PI
            assert d["formula_ids"]["delta_omega_l"] == formula

    def test_reference_values(self, bpsk_reference_params, qpsk_reference_params):
        # printed reference: 125'000 (rounded) for BPSK, 177'483 for QPSK
        dw = lock_in_range(bpsk_reference_params, CONVENTIONAL_BPSK)
        assert abs(dw - 125000.0) / 125000.0 < 0.015
        dwq = lock_in_range(qpsk_reference_params, CONVENTIONAL_QPSK)
        assert abs(dwq - 177483.0) / 177483.0 < 0.01
        dwm = lock_in_range(bpsk_reference_params, MODIFIED_BPSK)
        assert abs(dwm - 394000.0) / 394000.0 < 0.01

    def test_lock_time(self, bpsk_design):
        assert lock_time(bpsk_design) == pytest.approx(TWO_PI / bpsk_design.omega_n)
        assert lock_time(bpsk_design) == pytest.approx(25e-6, rel=0.02)
        p2 = LoopParams(0, 0, 4.0 * bpsk_design.k0, 1.0,
                        bpsk_design.tau1, bpsk_design.tau2)
        assert lock_time(p2) == pytest.approx(lock_time(bpsk_design) / 2)
        p3 = LoopParams(0, 0, (TWO_PI) ** 2, 1.0, 1.0, 0.1)
        assert lock_time(p3) == pytest.approx(1.0)


class TestPullInRange:
    def test_bpsk_closed_form_value(self, bpsk_reference_params):
        dw = pull_in_range(bpsk_reference_params, CONVENTIONAL_BPSK)
        assert dw == pytest.approx(1124071.0, rel=1e-4)

    def test_qpsk_closed_form_value(self, qpsk_reference_params):
        dw = pull_in_range(qpsk_reference_params, CONVENTIONAL_QPSK)
        # the printed ~73 kHz is this closed form at omega_c = 316228 rad/s
        assert dw / TWO_PI == pytest.approx(75.2e3, rel=0.01)

    def test_modified_unbounded(self, modified_reference_params):
        assert math.isinf(pull_in_range(modified_reference_params, MODIFIED_BPSK))
        assert math.isinf(pull_in_range(modified_reference_params, MODIFIED_QPSK))

    @pytest.mark.parametrize("variant", [MODIFIED_BPSK, MODIFIED_QPSK])
    def test_numeric_modified_unbounded(self, modified_reference_params, variant):
        assert pull_in_range_numeric(modified_reference_params, variant) == math.inf

    def test_phase_lag_needs_omega3(self, modified_reference_params):
        with pytest.raises(RangeError, match="conventional loops only"):
            total_phase_lag(modified_reference_params, CONVENTIONAL_BPSK, 1e5)

    def test_numeric_matches_closed_bpsk_synthetic(self):
        # omega3/omega_c = 5 gives the closed form omega3*sqrt(4/5)
        p = LoopParams(0, 0, 1e6, 1.0, 1e-4, 1.0 / 2e5, omega3=1e6)
        closed = pull_in_range(p, CONVENTIONAL_BPSK)
        assert closed == pytest.approx(1e6 * math.sqrt(0.8), rel=1e-12)
        numeric = pull_in_range_numeric(p, CONVENTIONAL_BPSK)
        assert abs(numeric - closed) / closed < 1e-6

    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK])
    def test_numeric_matches_closed_random(self, variant):
        rng = np.random.default_rng(0xA11CE)
        for _ in range(100):
            omega_c = 10 ** rng.uniform(4, 6)
            ratio = rng.uniform(2.0, 50.0)
            omega3 = ratio * omega_c
            p = LoopParams(
                0, 0, 1e6, 1.0, 1e-4, 1.0 / omega_c, omega3=omega3
            )
            closed = pull_in_range(p, variant)
            numeric = pull_in_range_numeric(p, variant)
            assert abs(numeric - closed) / closed < 1e-6

    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK])
    def test_numeric_is_the_hand_written_bisection(self, variant):
        # the loop core.bisect replaced, bit for bit, on 600 seeded designs
        n = 4 if variant.is_qpsk else 2
        rng = np.random.default_rng(0xB15EC7)
        for _ in range(600):
            omega_c = 10 ** rng.uniform(2, 8)
            p = LoopParams(0, 0, 1e6, 1.0, 1e-4, 1.0 / omega_c,
                           omega3=omega_c * 10 ** rng.uniform(1e-3, 4))

            def f(dw):
                return n * math.atan(dw / p.omega3) - math.atan(n * dw / p.omega_c)

            lo, hi = 0.0, 100.0 * p.omega3
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-9 * hi:
                    break
            assert pull_in_range_numeric(p, variant) == 0.5 * (lo + hi)

    def test_degenerate_configuration_rejected(self):
        p = LoopParams(0, 0, 1e6, 1.0, 1e-4, 1e-5, omega3=5e4)
        with pytest.raises(RangeError):
            pull_in_range(p, CONVENTIONAL_BPSK)

    def test_nesting(self, bpsk_reference_params, qpsk_reference_params):
        for p, v in ((bpsk_reference_params, CONVENTIONAL_BPSK),
                     (qpsk_reference_params, CONVENTIONAL_QPSK)):
            assert lock_in_range(p, v) < pull_in_range(p, v)


class TestPullInTime:
    @pytest.mark.parametrize("dw", [0.0, -1.0])
    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, MODIFIED_BPSK])
    def test_formula_refuses_offset_at_or_below_0(self, bpsk_design, variant, dw):
        with pytest.raises(RangeError, match=r"^delta_omega0 must be > 0$"):
            pull_in_time_formula(bpsk_design, variant, dw)

    def test_table_values_bpsk(self, bpsk_design):
        expect = {50e3: 33.0, 70e3: 78.0, 100e3: 204.0}
        for f, val in expect.items():
            t = pull_in_time(bpsk_design, CONVENTIONAL_BPSK, TWO_PI * f)
            assert abs(t * 1e6 - val) / val < 0.05

    def test_table_values_modified(self, mod_bpsk_design, mod_qpsk_design):
        for f, val in {50e3: 2.5, 100e3: 10.0, 200e3: 40.0}.items():
            t = pull_in_time_formula(mod_bpsk_design, MODIFIED_BPSK, TWO_PI * f)
            assert abs(t * 1e6 - val) / val < 0.05
        for f, val in {50e3: 20.0, 100e3: 81.0, 200e3: 327.0}.items():
            t = pull_in_time_formula(mod_qpsk_design, MODIFIED_QPSK, TWO_PI * f)
            assert abs(t * 1e6 - val) / val < 0.05

    def test_fast_acquisition_floor(self, mod_bpsk_design):
        dwl = lock_in_range(mod_bpsk_design, MODIFIED_BPSK)
        assert pull_in_time(mod_bpsk_design, MODIFIED_BPSK, 0.5 * dwl) == lock_time(
            mod_bpsk_design
        )

    def test_out_of_range_rejected(self, bpsk_design):
        dwp = pull_in_range(bpsk_design, CONVENTIONAL_BPSK)
        with pytest.raises(RangeError):
            pull_in_time(bpsk_design, CONVENTIONAL_BPSK, 1.01 * dwp)

    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK])
    def test_formula_rejects_offsets_inside_lock_in(self, variant):
        # the log form turns negative there (bpsk: -5 us at 5 kHz)
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        dwl = lock_in_range(p, variant)
        for dw in (TWO_PI * 5e3, dwl):
            with pytest.raises(RangeError):
                pull_in_time_formula(p, variant, dw)
        assert pull_in_time_formula(p, variant, 1.01 * dwl) > 0.0
        assert pull_in_time(p, variant, dwl) == lock_time(p)

    def test_monotone_in_offset(self, bpsk_design, qpsk_design,
                                mod_bpsk_design, mod_qpsk_design):
        cases = [
            (bpsk_design, CONVENTIONAL_BPSK),
            (qpsk_design, CONVENTIONAL_QPSK),
            (mod_bpsk_design, MODIFIED_BPSK),
            (mod_qpsk_design, MODIFIED_QPSK),
        ]
        for p, v in cases:
            dwl = lock_in_range(p, v)
            dwp = pull_in_range(p, v)
            top = min(dwp * 0.99, 20 * dwl) if math.isfinite(dwp) else 20 * dwl
            grid = np.linspace(1.01 * dwl, top, 100)
            vals = [pull_in_time_formula(p, v, dw) for dw in grid]
            assert np.all(np.diff(vals) > 0)

    def test_alternative_pd_coefficients(self, modified_reference_params):
        p = modified_reference_params
        dw = TWO_PI * 200e3
        zwn3 = p.zeta * p.omega_n**3
        alt_b = LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG)
        alt_q = LoopVariant(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG)
        assert pull_in_time_formula(p, alt_b, dw) == pytest.approx(
            (math.pi**2 / 16) * dw**2 / zwn3
        )
        assert pull_in_time_formula(p, alt_q, dw) == pytest.approx(
            1.78 * dw**2 / zwn3
        )


    def test_omega_n_cubed_overflow_is_a_design_error(self, modified_reference_params):
        # float ** raises OverflowError past omega_n of about 5.6e102; the
        # divisor reads inf there, refused by name, and a finite one is
        # still zeta*omega_n**3
        p = modified_reference_params
        dw = TWO_PI * 200e3
        assert pull_in_time_formula(p, MODIFIED_BPSK, dw) == \
            (2.0 / math.pi**2) * dw**2 / (p.zeta * p.omega_n**3)
        big = LoopParams(p.omega1, p.omega_free, 1e250, 1.0, p.tau1, p.tau2)
        with pytest.raises(DesignError, match=r"zeta\*omega_n\^3 = inf is out of range"):
            pull_in_time_formula(big, MODIFIED_BPSK, dw)
        # a conventional offset inside its band, where omega_n**3 overflows
        conventional = LoopParams(0, 0, 2e304, 1, 1, 1e-299, omega3=1e300)
        assert lock_in_range(conventional, CONVENTIONAL_BPSK) == pytest.approx(1e5)
        assert pull_in_range(conventional, CONVENTIONAL_BPSK) == pytest.approx(9.487e299, rel=1e-3)
        with pytest.raises(DesignError, match=r"2\*C\*zeta\*omega_n\^3 = inf is out of range"):
            pull_in_time_formula(conventional, CONVENTIONAL_BPSK, 2e5)


class TestHoldIn:
    def test_pi_unbounded(self, bpsk_design):
        hold = hold_in_pi(bpsk_design)
        assert hold.unbounded
        assert hold.formula_id == "type-2-PI"
        assert hold.contains(1e9)

    def test_zero_gain_degenerate(self):
        p = LoopParams(omega1=0, omega_free=0, k0=0.0, kd=1.0, tau1=1e-4, tau2=1e-5)
        hold = hold_in_pi(p)
        assert not hold.unbounded and hold.intervals == ()

    def test_leadlag_wide_lpf_full_interval(self):
        k0, kd, tau1, tau2 = 1e6, 1.0, 1e-4, 2e-5
        omega3 = 2 * (tau1 - tau2) / (tau1 * tau2)
        hold = hold_in_leadlag(k0, kd, tau1, tau2, omega3)
        assert hold.case == "wide-lpf"
        assert hold.intervals == ((0.0, k0 * kd / 2.0),)

    def test_leadlag_narrow_lpf_cases(self):
        k0, kd, tau1, tau2 = 1e6, 1.0, 1e-3, 1e-5
        omega3_star = (tau1 - tau2) / (tau1 * tau2)
        # very narrow: threshold binds, split interval
        hold = hold_in_leadlag(k0, kd, tau1, tau2, 0.001 * omega3_star)
        assert hold.case == "narrow-lpf-split"
        lo, hi = hold.intervals[0]
        assert 0.0 < lo < hi == k0 * kd / 2.0
        # narrow but weak condition: |cos threshold| > 1 keeps the full interval
        k0_small = 1e2
        hold2 = hold_in_leadlag(k0_small, kd, tau1, tau2, 0.5 * omega3_star)
        assert hold2.case == "narrow-lpf-full"
        assert hold2.intervals == ((0.0, k0_small * kd / 2.0),)

    def test_leadlag_ordering_enforced(self):
        with pytest.raises(DesignError):
            hold_in_leadlag(1e6, 1.0, 1e-5, 1e-4, 1e5)

    def test_membership_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(0xC0FFEE)
        disagreements = 0
        n = 1000
        for _ in range(n):
            k0 = 10 ** rng.uniform(2, 7)
            kd = rng.uniform(0.5, 4.0)
            tau1 = 10 ** rng.uniform(-5, -2)
            tau2 = tau1 * rng.uniform(0.02, 0.9)
            omega3_star = (tau1 - tau2) / (tau1 * tau2)
            omega3 = omega3_star * 10 ** rng.uniform(-3, 2)
            dw = rng.uniform(0.0, 0.55) * k0 * kd
            hold = hold_in_leadlag(k0, kd, tau1, tau2, omega3)
            member = hold.contains(dw)
            s = 2.0 * dw / (k0 * kd)
            if s >= 1.0:
                oracle = False
            else:
                poly = leadlag_char_poly(
                    k0, kd, tau1, tau2, omega3, math.sqrt(1 - s * s)
                )
                roots = np.roots(list(reversed(poly)))
                oracle = bool(np.all(roots.real < 0))
            if member != oracle:
                disagreements += 1
                # any disagreement must sit against an interval boundary
                bounds = [b for iv in hold.intervals for b in iv] + [k0 * kd / 2]
                assert min(abs(dw - b) / (k0 * kd) for b in bounds) < 1e-6
        assert disagreements <= 5  # 0.5% of 1000


class TestPredict:
    def test_report_fields(self, bpsk_design):
        d = predict(bpsk_design, CONVENTIONAL_BPSK)
        assert d["delta_omega_l"] < d["delta_omega_p"]
        assert d["delta_omega_p_numeric"] == pytest.approx(d["delta_omega_p"], rel=1e-6)
        assert d["formula_ids"]["t_l"] == "lock-time:2pi/omega_n"
        assert d["hold_in"]["unbounded"]

    def test_modified_report_unbounded(self, mod_qpsk_design):
        d = predict(mod_qpsk_design, MODIFIED_QPSK)
        assert math.isinf(pull_in_range(mod_qpsk_design, MODIFIED_QPSK))
        assert d["delta_omega_p"] == "unbounded"
