"""The loop's two filter discretizations, ``signal_sim._discrete_lpf`` and
``signal_sim._discrete_pi``."""

import cmath
import math

import numpy as np
import pytest

from costas_lab.signal_sim import ConfigError, _discrete_lpf, _discrete_pi

T_SAMP = 1.0 / 3.2e6
# the reference design: LPF corner, PI time constants
OMEGA3, TAU1, TAU2 = 1256000.0, 20e-6, 4e-6

# float.hex of the coefficients for the reference design, per sampling rate
# (the LPF's one numerator tap b and a1)
LPF_BITS = {
    3.2e6: ("0x1.53a33b8a64244p-3", "-0x1.562e623acdedep-1"),
    12.8e6: ("0x1.7f6a949835683p-5", "-0x1.d012ad6cf9530p-1"),
    51.2e6: ("0x1.8d11d1af05ceep-7", "-0x1.f397717287d19p-1"),
}
PI_BITS = {
    3.2e6: ("0x1.a96442e0a8d0bp-3", "-0x1.896442e0a8d0bp-3"),
    12.8e6: ("0x1.9d964442e0b54p-3", "-0x1.95964442e0b54p-3"),
    51.2e6: ("0x1.9a99644442e0cp-3", "-0x1.9899644442e0cp-3"),
}


def prewarped(w, T=T_SAMP):
    return (2.0 / T) * math.tan(w * T / 2.0)


def lpf_at(w, omega3=OMEGA3, T=T_SAMP):
    """Discrete LPF response at angular frequency w (numerator b*(1 + z^-1))."""
    b, a1 = _discrete_lpf(omega3, T)
    z = cmath.exp(-1j * w * T)  # z^-1 on the unit circle
    return (b + b * z) / (1.0 + a1 * z)


def pi_at(w, tau1=TAU1, tau2=TAU2, T=T_SAMP):
    """Discrete PI response at angular frequency w (denominator 1 - z^-1)."""
    b0, b1 = _discrete_pi(tau1, tau2, T)
    z = cmath.exp(-1j * w * T)
    return (b0 + b1 * z) / (1.0 - z)


class TestPrototypes:
    def test_pi_filter_coefficients(self):
        for fs, bits in PI_BITS.items():
            assert tuple(x.hex() for x in _discrete_pi(TAU1, TAU2, 1.0 / fs)) == bits

    def test_pi_high_frequency_gain(self):
        # Nyquist (z^-1 = -1) is the image of s = inf: the gain is tau2/tau1
        # with the zero at its prewarped place
        b0, b1 = _discrete_pi(TAU1, TAU2, T_SAMP)
        gain = (b0 - b1) / 2.0
        assert gain == pytest.approx(1.0 / (prewarped(1.0 / TAU2) * TAU1), rel=1e-12)
        assert gain == pytest.approx(0.2, rel=1e-3)

    def test_pi_unit_constants_magnitude(self):
        # coarse sampling, corner at w*T/2 = 0.5: the magnitude at the corner
        # is sqrt(2)/(wp*tau1), with the prewarped corner wp
        h = pi_at(1.0, tau1=1.0, tau2=1.0, T=1.0)
        assert abs(h) == pytest.approx(math.sqrt(2) / prewarped(1.0, 1.0), rel=1e-12)
        assert cmath.phase(h) == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_pi_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            _discrete_pi(-1.0, 1.0, T_SAMP)
        with pytest.raises(ConfigError):
            _discrete_pi(1.0, 0.0, T_SAMP)

    def test_lpf1_dc(self):
        b, a1 = _discrete_lpf(OMEGA3, T_SAMP)
        assert (b + b) / (1.0 + a1) == pytest.approx(1.0, rel=1e-14)
        assert lpf_at(0.0).imag == 0.0

    def test_lpf1_corner(self):
        h = lpf_at(OMEGA3)
        assert cmath.phase(h) == pytest.approx(-math.pi / 4, abs=1e-12)
        assert abs(h) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_lpf1_phase_law(self):
        # the analog law -atan(w/omega3) with both frequencies prewarped
        for w in (1e4, 1e5, 5e5):
            phase = cmath.phase(lpf_at(w, omega3=2.0e5))
            assert phase == pytest.approx(-math.atan(prewarped(w) / prewarped(2.0e5)),
                                          abs=1e-12)
            assert phase == pytest.approx(-math.atan(w / 2.0e5), abs=1e-3)

    def test_lpf1_rejects_nonpositive(self):
        for omega3 in (0.0, -1.0):
            with pytest.raises(ConfigError):
                _discrete_lpf(omega3, T_SAMP)

    def test_pi_magnitude_at_corner(self):
        h = pi_at(1.0 / TAU2)
        assert abs(h) == pytest.approx(math.sqrt(2) / (prewarped(1.0 / TAU2) * TAU1),
                                       rel=1e-12)
        assert abs(h) == pytest.approx(math.sqrt(2) * 0.2, rel=1e-3)
        assert cmath.phase(h) == pytest.approx(-math.pi / 4, abs=1e-12)


class TestBilinear:
    def test_lpf_coefficients_closed_form(self):
        # the lowpass keeps its zero at Nyquist, so both numerator taps are
        # the one b, and a carries the corner terms
        b, a1 = _discrete_lpf(OMEGA3, T_SAMP)
        c = 2.0 / (prewarped(OMEGA3) * T_SAMP)
        norm = 1.0 + c
        assert b == pytest.approx(1.0 / norm, rel=1e-12)
        assert a1 == pytest.approx((1.0 - c) / norm, rel=1e-12)

    def test_lpf_coefficients_pinned(self):
        for fs, bits in LPF_BITS.items():
            assert tuple(x.hex() for x in _discrete_lpf(OMEGA3, 1.0 / fs)) == bits

    def test_pi_coefficients_closed_form(self):
        b0, b1 = _discrete_pi(TAU1, TAU2, T_SAMP)
        g = 2 / (prewarped(1.0 / TAU2) * T_SAMP)
        norm = 2.0 * TAU1 / T_SAMP
        assert b0 == pytest.approx((1 + g) / norm, rel=1e-12)
        assert b1 == pytest.approx((1 - g) / norm, rel=1e-12)
        # the integrator pole maps to z = 1 with the trapezoidal gain T/tau1
        assert b0 + b1 == pytest.approx(T_SAMP / TAU1, rel=1e-12)

    def test_prewarp_fixed_point(self):
        # at its corner the discrete LPF equals the analog 1/(1 + j); the PI
        # keeps the analog phase -pi/4 there (its pole at s = 0 is exact)
        assert abs(lpf_at(OMEGA3) - 1 / (1 + 1j)) < 1e-9
        assert abs(cmath.phase(pi_at(1.0 / TAU2)) + math.pi / 4) < 1e-9

    def test_prewarp_fixed_point_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = 10 ** rng.uniform(4, 6.2)
            assert abs(lpf_at(w, omega3=w) - 1 / (1 + 1j)) < 1e-9
            assert abs(cmath.phase(pi_at(w, tau2=1.0 / w)) + math.pi / 4) < 1e-9

    def test_pole_mapping_inside_unit_circle(self):
        # the LPF pole z = -a1 for corners up to 98% of Nyquist, at rates
        # from 100 kHz to 100 MHz
        rng = np.random.default_rng(37)
        for _ in range(1000):
            fs = 10 ** rng.uniform(5, 8)
            w = 10 ** rng.uniform(math.log10(fs) - 5, math.log10(0.98 * math.pi * fs))
            _, a1 = _discrete_lpf(w, 1.0 / fs)
            assert abs(a1) < 1.0 - 1e-12

    @pytest.mark.parametrize("omega3", [1.2e7, math.pi * 3.2e6, math.nan, math.inf])
    def test_corner_out_of_range_rejected(self, omega3):
        # a corner at or beyond Nyquist (omega*T/2 >= pi/2) has no prewarped image
        with pytest.raises(ConfigError, match="cannot be prewarped"):
            _discrete_lpf(omega3, T_SAMP)
        if 0.0 < omega3 < math.inf:
            with pytest.raises(ConfigError, match="cannot be prewarped"):
                _discrete_pi(TAU1, 1.0 / omega3, T_SAMP)
