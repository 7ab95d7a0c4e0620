import cmath
import math

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    LoopVariant,
    PdFlavor,
    VariantTag,
)
from costas_lab.detectors import (
    SAMPLE_PD,
    PdCharacteristic,
    pd_conventional_bpsk,
    pd_conventional_qpsk,
    phi_bpsk,
    phi_qpsk,
)

N_RANDOM = 10_000

MOD_BPSK_PHASE = SAMPLE_PD[(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_PHASE)]
MOD_BPSK_IMAG = SAMPLE_PD[(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG)]
MOD_QPSK_PHASE = SAMPLE_PD[(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_PHASE)]
MOD_QPSK_IMAG = SAMPLE_PD[(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG)]


def on_envelope(pd, um: complex) -> float:
    """A sample-level modified-loop PD applied to the rotated envelope um."""
    return pd(um.real, um.imag)


class TestPhiBpsk:
    def test_equilibrium(self):
        assert phi_bpsk(0.0) == 0.0

    def test_quarter_period_peak(self):
        assert phi_bpsk(math.pi / 4, 1.0) == pytest.approx(0.5)

    def test_unstable_fixed_point_slope(self):
        h = 1e-6
        assert phi_bpsk(math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        slope = (phi_bpsk(math.pi / 2 + h) - phi_bpsk(math.pi / 2 - h)) / (2 * h)
        assert slope < -0.9  # cos(pi) * m^2


class TestPhiQpsk:
    def test_equilibrium(self):
        assert phi_qpsk(0.0) == 0.0

    def test_first_branch(self):
        assert phi_qpsk(math.pi / 8, 1.0) == pytest.approx(2 * math.sin(math.pi / 8))

    def test_second_branch_zero(self):
        # at pi/2 the second branch -2m*cos gives 0
        assert phi_qpsk(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_peak_amplitude_at_left_limit(self):
        assert phi_qpsk(math.pi / 4, 1.0) == pytest.approx(math.sqrt(2))

    def test_boundary_tie_break_left_limit(self):
        # approaching pi/4 from both sides: left limit is kept at the corner
        assert phi_qpsk(math.pi / 4 - 1e-12) == pytest.approx(math.sqrt(2), rel=1e-6)
        assert phi_qpsk(math.pi / 4 + 1e-9) == pytest.approx(-math.sqrt(2), rel=1e-6)


class TestSampleLevelPds:
    def test_bpsk_locked(self):
        assert pd_conventional_bpsk(1.0, 0.0) == 0.0

    def test_bpsk_identity(self):
        th = 0.77
        assert pd_conventional_bpsk(math.cos(th), math.sin(th)) == pytest.approx(
            math.sin(2 * th) / 2
        )

    def test_bpsk_product(self):
        assert pd_conventional_bpsk(-1.0, 0.1) == pytest.approx(-0.1)

    def test_qpsk_lock_point_diagonal(self):
        assert pd_conventional_qpsk(1.0, 1.0) == 0.0

    def test_qpsk_direct_substitution(self):
        assert pd_conventional_qpsk(1.0, -0.2) == pytest.approx(-0.8)

    def test_qpsk_matches_phi(self):
        th = math.pi / 8
        i2 = math.cos(th) + math.sin(th)
        q2 = -math.sin(th) + math.cos(th)
        assert pd_conventional_qpsk(i2, q2) == pytest.approx(phi_qpsk(th, 1.0))


class TestModifiedPds:
    def test_bpsk_locked(self):
        assert on_envelope(MOD_BPSK_PHASE, 1 + 0j) == 0.0

    def test_bpsk_data_flip_absorbs_pi(self):
        assert on_envelope(MOD_BPSK_PHASE, -1 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_bpsk_quadrant_one(self):
        assert on_envelope(MOD_BPSK_PHASE, cmath.exp(1j * math.pi / 6)) == pytest.approx(
            math.pi / 6)

    def test_qpsk_locked(self):
        assert on_envelope(MOD_QPSK_PHASE, 1 + 1j) == pytest.approx(0.0, abs=1e-15)

    def test_qpsk_rotation_within_quadrant(self):
        um = cmath.exp(1j * math.pi / 16) * (1 + 1j)
        assert on_envelope(MOD_QPSK_PHASE, um) == pytest.approx(math.pi / 16)

    def test_qpsk_second_quadrant_estimate(self):
        assert on_envelope(MOD_QPSK_PHASE, -1 + 1j) == pytest.approx(0.0, abs=1e-15)

    def test_imag_locked(self):
        assert on_envelope(MOD_BPSK_IMAG, 1 + 0j) == 0.0

    def test_imag_bpsk_sine(self):
        um = cmath.exp(1j * math.pi / 6)
        assert on_envelope(MOD_BPSK_IMAG, um) == pytest.approx(0.5)

    def test_imag_qpsk_small_angle_gain(self):
        th = 1e-4
        um = (1 + 1j) * cmath.exp(1j * th)
        assert on_envelope(MOD_QPSK_IMAG, um) / th == pytest.approx(2.0, rel=1e-6)


class TestSamplePdTable:
    """The table the simulator calls."""

    def test_one_entry_per_variant_and_flavor(self):
        assert len(SAMPLE_PD) == 6
        for tag, flavor in SAMPLE_PD:
            LoopVariant(tag, flavor)  # raises for an invalid pair

    def test_bpsk_tie_folds_to_plus_half_pi(self):
        assert MOD_BPSK_PHASE(0.0, -1.0) == math.pi / 2

    def test_qpsk_tie_folds_to_plus_quarter_pi(self):
        assert MOD_QPSK_PHASE(1.0, 0.0) == math.pi / 4

    @pytest.mark.parametrize("key", list(SAMPLE_PD))
    def test_zero_input_gives_zero(self, key):
        assert SAMPLE_PD[key](0.0, 0.0) == 0.0


class TestPdInvariants:
    """Randomized invariants over the PD characteristics."""

    rng = np.random.default_rng(0x5EED)

    def test_periodicity(self):
        th = self.rng.uniform(-20, 20, N_RANDOM)
        for t in th[:200]:
            assert phi_bpsk(t + math.pi) == pytest.approx(phi_bpsk(t), abs=1e-9)
            assert phi_qpsk(t + math.pi / 2) == pytest.approx(phi_qpsk(t), abs=1e-9)
        # vectorized residual check for the rest
        pb = np.array([phi_bpsk(t) - phi_bpsk(t + math.pi) for t in th])
        pq = np.array([phi_qpsk(t) - phi_qpsk(t + math.pi / 2) for t in th])
        assert np.max(np.abs(pb)) < 1e-8
        assert np.max(np.abs(pq)) < 1e-8

    def test_odd_symmetry_away_from_boundaries(self):
        th = self.rng.uniform(-10, 10, N_RANDOM)
        quarter = math.pi / 4
        ok = np.abs((th - quarter) % (math.pi / 2) - quarter) > 1e-3  # QPSK corners
        for t in th[ok][:2000]:
            assert phi_bpsk(-t) == pytest.approx(-phi_bpsk(t), abs=1e-9)
            assert phi_qpsk(-t) == pytest.approx(-phi_qpsk(t), abs=1e-9)

    @pytest.mark.parametrize(
        "variant,m,kd",
        [
            (CONVENTIONAL_BPSK, 1.0, 1.0),
            (CONVENTIONAL_BPSK, 1.7, 1.7**2),
            (CONVENTIONAL_QPSK, 1.0, 2.0),
            (CONVENTIONAL_QPSK, 0.8, 1.6),
            (MODIFIED_BPSK, 1.0, 1.0),
            (MODIFIED_QPSK, 1.0, 1.0),
            (LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG), 1.3, 1.3),
            (LoopVariant(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG), 1.3, 2.6),
            (CONVENTIONAL_BPSK, 2.0, 4.0),
        ],
    )
    def test_small_angle_gain(self, variant, m, kd):
        pd = PdCharacteristic(variant, m)
        th = 1e-4
        assert pd.phi(th) / th == pytest.approx(kd, rel=1e-6)
        assert pd.kd == pytest.approx(kd)

    def test_sample_level_matches_baseband_bpsk(self):
        th = self.rng.uniform(-10, 10, N_RANDOM)
        m1 = self.rng.choice([-1.0, 1.0], N_RANDOM)
        for t, m in zip(th[:2000], m1[:2000]):
            i2 = m * math.cos(t)
            q2 = m * math.sin(t)
            assert pd_conventional_bpsk(i2, q2) == pytest.approx(
                phi_bpsk(t, 1.0), abs=1e-12
            )

    def test_sample_level_matches_baseband_qpsk(self):
        th = self.rng.uniform(-10, 10, N_RANDOM)
        m1 = self.rng.choice([-1.0, 1.0], N_RANDOM)
        m2 = self.rng.choice([-1.0, 1.0], N_RANDOM)
        quarter = math.pi / 4
        count = 0
        for t, a, b in zip(th, m1, m2):
            if abs((t - quarter) % (math.pi / 2) - quarter) < 1e-6:
                continue  # data-dependent corner points
            i2 = a * math.cos(t) + b * math.sin(t)
            q2 = -a * math.sin(t) + b * math.cos(t)
            assert pd_conventional_qpsk(i2, q2) == pytest.approx(
                phi_qpsk(t, 1.0), abs=1e-9
            )
            count += 1
            if count >= 2000:
                break

    def test_modified_pd_output_range(self):
        z = self.rng.normal(size=(N_RANDOM, 2))
        for re, im in z:
            if re == 0 and im == 0:
                continue
            assert -math.pi / 2 < MOD_BPSK_PHASE(re, im) <= math.pi / 2
            assert -math.pi / 4 < MOD_QPSK_PHASE(re, im) <= math.pi / 4

    def test_characteristic_m_validation(self):
        with pytest.raises(ValueError):
            PdCharacteristic(CONVENTIONAL_BPSK, m=0.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 0.0, -0.5, True])
    def test_characteristic_m_must_be_finite_and_positive(self, m):
        # a NaN m fails no comparison, so it needs the finiteness check
        with pytest.raises(ValueError, match=r"m must be|must be > 0"):
            PdCharacteristic(CONVENTIONAL_BPSK, m=m)
