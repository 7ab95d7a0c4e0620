import math

import numpy as np
import pytest

from costas_lab.filters import (
    DiscreteFilter,
    FilterDesignError,
    FilterEvaluationError,
    RationalTF,
    bilinear,
    freq_response,
    make_leadlag,
    make_lpf1,
    make_pi_filter,
    routh_hurwitz,
    routh_hurwitz_stable,
    step_filter,
)

T_SAMP = 1.0 / 3.2e6


class TestPrototypes:
    def test_pi_filter_coefficients(self):
        tf = make_pi_filter(20e-6, 4e-6)
        assert tf.num == (1.0, 4e-6)
        assert tf.den == (0.0, 2e-5)

    def test_pi_high_frequency_gain(self):
        tf = make_pi_filter(20e-6, 4e-6)
        assert abs(freq_response(tf, 1e12)) == pytest.approx(0.2, rel=1e-6)

    def test_pi_unit_constants_magnitude(self):
        tf = make_pi_filter(1.0, 1.0)
        assert abs(freq_response(tf, 1.0)) == pytest.approx(math.sqrt(2))

    def test_pi_rejects_nonpositive(self):
        with pytest.raises(FilterDesignError):
            make_pi_filter(-1.0, 1.0)
        with pytest.raises(FilterDesignError):
            make_pi_filter(1.0, 0.0)

    def test_lpf1_dc(self):
        tf = make_lpf1(1256000.0)
        h = freq_response(tf, 0.0)
        assert h == pytest.approx(1.0)
        assert cmath_phase(h) == 0.0

    def test_lpf1_corner(self):
        tf = make_lpf1(1256000.0)
        h = freq_response(tf, 1256000.0)
        assert cmath_phase(h) == pytest.approx(-math.pi / 4)
        assert abs(h) == pytest.approx(1 / math.sqrt(2))

    def test_lpf1_phase_law(self):
        tf = make_lpf1(2.0e5)
        for w in (1e4, 1e5, 5e5):
            assert cmath_phase(freq_response(tf, w)) == pytest.approx(
                -math.atan(w / 2.0e5)
            )

    def test_lpf1_rejects_nonpositive(self):
        with pytest.raises(FilterDesignError):
            make_lpf1(0.0)

    def test_leadlag_dc_and_hf(self):
        tf = make_leadlag(2.0, 1.0)
        assert abs(freq_response(tf, 0.0)) == pytest.approx(1.0)
        assert abs(freq_response(tf, 1e9)) == pytest.approx(0.5, rel=1e-6)

    def test_leadlag_ordering_enforced(self):
        with pytest.raises(FilterDesignError):
            make_leadlag(1.0, 2.0)
        with pytest.raises(FilterDesignError):
            make_leadlag(1.0, 1.0)

    def test_pi_pole_at_origin_raises(self):
        with pytest.raises(FilterEvaluationError):
            freq_response(make_pi_filter(20e-6, 4e-6), 0.0)

    def test_pi_magnitude_at_corner(self):
        tf = make_pi_filter(20e-6, 4e-6)
        assert abs(freq_response(tf, 250000.0)) == pytest.approx(
            math.sqrt(2) * 0.2, rel=1e-9
        )


def cmath_phase(z):
    return math.atan2(z.imag, z.real)


class TestBilinear:
    def test_lpf_coefficients_closed_form(self):
        # after normalization a == [1, 1]/(1+c) pattern inverted: the
        # lowpass keeps its zero at Nyquist, so b carries the [1, 1] pair
        # and a carries the corner terms; the swapped orientation would
        # put a pole on the unit circle
        omega3 = 1256000.0
        f = bilinear(make_lpf1(omega3), T_SAMP, prewarp_at=omega3)
        w3p = (2 / T_SAMP) * math.tan(omega3 * T_SAMP / 2)
        c = 2.0 / (w3p * T_SAMP)
        norm = 1.0 + c
        assert f.b[0] == pytest.approx(1.0 / norm, rel=1e-12)
        assert f.b[1] == pytest.approx(1.0 / norm, rel=1e-12)
        assert f.a == (1.0, pytest.approx((1.0 - c) / norm, rel=1e-12))

    def test_pi_coefficients_closed_form(self):
        tau1, tau2 = 20e-6, 4e-6
        omega_c = 1.0 / tau2
        f = bilinear(make_pi_filter(tau1, tau2), T_SAMP, prewarp_at=omega_c)
        wcp = (2 / T_SAMP) * math.tan(omega_c * T_SAMP / 2)
        norm = 2.0 * tau1 / T_SAMP
        assert f.a == (1.0, -1.0)
        assert f.b[0] == pytest.approx((1 + 2 / (wcp * T_SAMP)) / norm, rel=1e-12)
        assert f.b[1] == pytest.approx((1 - 2 / (wcp * T_SAMP)) / norm, rel=1e-12)

    def test_integrator_backward_difference_form(self):
        k0 = 1.25e6
        f = bilinear(RationalTF(num=(k0,), den=(0.0, 1.0)), T_SAMP)
        assert f.b == (pytest.approx(k0 * T_SAMP), 0.0)
        assert f.a == (1.0, -1.0)

    def test_prewarp_fixed_point(self):
        # discrete response at the design corner equals the analog response
        omega3 = 1256000.0
        analog = make_lpf1(omega3)
        f = bilinear(analog, T_SAMP, prewarp_at=omega3)
        z = np.exp(-1j * omega3 * T_SAMP)  # z^-1 at the corner
        hd = (f.b[0] + f.b[1] * z) / (f.a[0] + f.a[1] * z)
        ha = freq_response(analog, omega3)
        assert abs(hd - ha) < 1e-9 * abs(ha)

    def test_prewarp_fixed_point_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = 10 ** rng.uniform(4, 6.2)
            analog = make_lpf1(w)
            f = bilinear(analog, T_SAMP, prewarp_at=w)
            z = np.exp(-1j * w * T_SAMP)
            hd = (f.b[0] + f.b[1] * z) / (f.a[0] + f.a[1] * z)
            assert abs(hd - freq_response(analog, w)) < 1e-9

    def test_pole_mapping_inside_unit_circle(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            kind = rng.integers(0, 3)
            if kind == 0:
                tf = make_lpf1(10 ** rng.uniform(3, 6.5))
            elif kind == 1:
                tau1 = 10 ** rng.uniform(-6, -3)
                tf = make_leadlag(tau1, tau1 * rng.uniform(0.05, 0.95))
            else:  # random stable biquad, real poles (ascending coefficients)
                p1 = -(10 ** rng.uniform(3, 6.5))
                p2 = -(10 ** rng.uniform(3, 6.5))
                den = np.convolve([1.0, -1.0 / p1], [1.0, -1.0 / p2])
                tf = RationalTF(num=(1.0,), den=tuple(den))
            f = bilinear(tf, T_SAMP)
            a_asc = list(f.a)
            while a_asc and a_asc[-1] == 0.0:
                a_asc.pop()
            x_roots = np.roots(a_asc[::-1])  # roots in x = z^-1; poles z = 1/x
            x_roots = x_roots[np.abs(x_roots) > 0]
            assert np.all(1.0 / np.abs(x_roots) < 1.0 - 1e-12)

    def test_pole_at_singularity_rejected(self):
        # pole at s = +2/T is at the bilinear singularity
        tf = RationalTF(num=(1.0,), den=(1.0, -T_SAMP / 2.0))
        with pytest.raises(FilterDesignError):
            bilinear(tf, T_SAMP)


class TestDiscreteFilter:
    def test_zero_state_zero_input(self):
        f = bilinear(make_lpf1(1e5), T_SAMP)
        assert step_filter(f, 0.0) == 0.0

    def test_integrator_impulse_holds(self):
        k0 = 2.0e6
        f = bilinear(RationalTF(num=(k0,), den=(0.0, 1.0)), T_SAMP)
        out = [step_filter(f, 1.0 if n == 0 else 0.0) for n in range(6)]
        assert out[0] == pytest.approx(k0 * T_SAMP)
        for v in out[1:]:
            assert v == pytest.approx(k0 * T_SAMP)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=64)
        u2 = rng.normal(size=64)
        fa, fb, fc = (bilinear(make_lpf1(3e5), T_SAMP) for _ in range(3))
        ya = [step_filter(fa, u) for u in u1]
        yb = [step_filter(fb, u) for u in u2]
        yc = [step_filter(fc, a + b) for a, b in zip(u1, u2)]
        assert np.allclose(np.array(ya) + np.array(yb), yc, atol=1e-12)

    def test_normalization_invariant(self):
        f = DiscreteFilter(b=(2.0, 1.0), a=(2.0, 0.5), sample_period=1.0)
        assert f.a[0] == 1.0
        assert f.b == (1.0, 0.5)
        assert len(f.state) == 1


class TestRouthHurwitz:
    def test_second_order_loop_polynomial(self):
        wn, zeta = 251000.0, 0.5
        assert routh_hurwitz_stable([wn**2, 2 * zeta * wn, 1.0])

    def test_negative_coefficient_unstable(self):
        # s^2 - s + 1
        assert not routh_hurwitz_stable([1.0, -1.0, 1.0])

    def test_appendix_cubic_wide_lpf(self):
        # cubic from the lead-lag linearization in the wide-LPF regime
        k0, kd, tau1, tau2 = 1e6, 1.0, 1e-4, 2e-5
        omega3 = 2 * (tau1 - tau2) / (tau1 * tau2)
        dw = 0.1 * k0 * kd
        cos2 = math.sqrt(1 - (2 * dw / (k0 * kd)) ** 2)
        g = 0.5 * k0 * kd * cos2
        poly = [g, 1 + g * tau2, tau1 + 1 / omega3, tau1 / omega3]
        assert routh_hurwitz_stable(poly)
        roots = np.roots(list(reversed(poly)))
        assert np.all(roots.real < 0)

    def test_marginal_reported_not_stable(self):
        # s^2 + 1: poles on the imaginary axis
        r = routh_hurwitz([1.0, 0.0, 1.0])
        assert r.marginal and not r.stable

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            routh_hurwitz_stable([0.0, 0.0])

    def test_negated_leading_coefficient_normalized(self):
        assert routh_hurwitz_stable([-2.0, -3.0, -1.0])  # -(s^2+3s+2)

    def test_against_companion_roots(self):
        # oracle: companion-matrix eigenvalues via np.roots
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            deg = int(rng.integers(1, 6))
            coeffs_desc = rng.normal(scale=2.0, size=deg + 1)
            if abs(coeffs_desc[0]) < 1e-3:
                continue
            actual_roots = np.roots(coeffs_desc)
            if len(actual_roots) == 0 or np.any(np.abs(actual_roots.real) < 1e-8):
                continue
            expected = bool(np.all(actual_roots.real < 0))
            got = routh_hurwitz_stable(list(coeffs_desc[::-1]))
            assert got == expected, f"poly {coeffs_desc} roots {actual_roots}"
            checked += 1
