import cmath
import itertools
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
from costas_lab.detectors import PdCharacteristic, phi_bpsk, phi_qpsk

N_RANDOM = 10_000

MOD_BPSK_PHASE = MODIFIED_BPSK
MOD_BPSK_IMAG = LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG)
MOD_QPSK_PHASE = MODIFIED_QPSK
MOD_QPSK_IMAG = LoopVariant(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG)
# every (variant, flavor) pair the sample loop is built for
PAIRS = [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK, MOD_BPSK_PHASE, MOD_BPSK_IMAG,
         MOD_QPSK_PHASE, MOD_QPSK_IMAG]


def on_envelope(pd_sample, variant, um: complex) -> float:
    """A modified loop's sample-level PD applied to the rotated envelope
    um: one sample at NCO phase 0, which hands the PD (Re um, Im um)."""
    ud, i2, q2 = pd_sample(variant, um.real, um.imag)
    assert (i2, q2) == (um.real, um.imag)
    return ud


def on_branches(pd_sample, variant, i2: float, q2: float) -> float:
    """A conventional loop's sample-level PD applied to branch signals
    (i2, q2), to rounding: one mixer sample of their magnitude, met at the
    NCO phase that turns it into them."""
    if variant.is_qpsk:
        th2 = math.atan2(q2, i2)
    else:
        th2 = math.atan2(i2, q2)
    ud, got_i2, got_q2 = pd_sample(variant, math.hypot(i2, q2), th2=th2)
    assert (got_i2, got_q2) == pytest.approx((i2, q2), rel=1e-15, abs=1e-15)
    return ud


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
    def test_bpsk_locked(self, pd_sample):
        # at NCO phase 0 the BPSK mixer's i branch, u*sin(0), is 0
        assert pd_sample(CONVENTIONAL_BPSK, 1.0)[0] == 0.0

    def test_bpsk_identity(self, pd_sample):
        th = 0.77
        ud, i2, q2 = pd_sample(CONVENTIONAL_BPSK, 1.0, th2=th)
        assert (i2, q2) == (math.sin(th), math.cos(th))
        assert ud == pytest.approx(math.sin(2 * th) / 2)

    def test_bpsk_product(self, pd_sample):
        assert on_branches(pd_sample, CONVENTIONAL_BPSK, -1.0, 0.1) == pytest.approx(-0.1)

    def test_qpsk_lock_point_diagonal(self, pd_sample):
        # at NCO phase pi/4 the branch signals are (1, 1) to rounding, and
        # ud is exactly their difference
        ud, i2, q2 = pd_sample(CONVENTIONAL_QPSK, math.sqrt(2.0), th2=math.pi / 4)
        assert (i2, q2) == pytest.approx((1.0, 1.0), rel=1e-15) and ud == i2 - q2
        assert ud == pytest.approx(0.0, abs=1e-15)

    def test_qpsk_direct_substitution(self, pd_sample):
        assert on_branches(pd_sample, CONVENTIONAL_QPSK, 1.0, -0.2) == pytest.approx(-0.8)

    def test_qpsk_matches_phi(self, pd_sample):
        th = math.pi / 8
        i2 = math.cos(th) + math.sin(th)
        q2 = -math.sin(th) + math.cos(th)
        assert on_branches(pd_sample, CONVENTIONAL_QPSK, i2, q2) == pytest.approx(
            phi_qpsk(th, 1.0))


class TestModifiedPds:
    def test_bpsk_locked(self, pd_sample):
        assert on_envelope(pd_sample, MOD_BPSK_PHASE, 1 + 0j) == 0.0

    def test_bpsk_data_flip_absorbs_pi(self, pd_sample):
        assert on_envelope(pd_sample, MOD_BPSK_PHASE, -1 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_bpsk_quadrant_one(self, pd_sample):
        assert on_envelope(pd_sample, MOD_BPSK_PHASE,
                           cmath.exp(1j * math.pi / 6)) == pytest.approx(math.pi / 6)

    def test_qpsk_locked(self, pd_sample):
        assert on_envelope(pd_sample, MOD_QPSK_PHASE, 1 + 1j) == pytest.approx(0.0, abs=1e-15)

    def test_qpsk_rotation_within_quadrant(self, pd_sample):
        um = cmath.exp(1j * math.pi / 16) * (1 + 1j)
        assert on_envelope(pd_sample, MOD_QPSK_PHASE, um) == pytest.approx(math.pi / 16)

    def test_qpsk_second_quadrant_estimate(self, pd_sample):
        assert on_envelope(pd_sample, MOD_QPSK_PHASE, -1 + 1j) == pytest.approx(0.0, abs=1e-15)

    def test_imag_locked(self, pd_sample):
        assert on_envelope(pd_sample, MOD_BPSK_IMAG, 1 + 0j) == 0.0

    def test_imag_bpsk_sine(self, pd_sample):
        um = cmath.exp(1j * math.pi / 6)
        assert on_envelope(pd_sample, MOD_BPSK_IMAG, um) == pytest.approx(0.5)

    def test_imag_qpsk_small_angle_gain(self, pd_sample):
        th = 1e-4
        um = (1 + 1j) * cmath.exp(1j * th)
        assert on_envelope(pd_sample, MOD_QPSK_IMAG, um) / th == pytest.approx(2.0, rel=1e-6)


# (u_re, u_im) -> the (i2, q2) a modified loop hands its PD at NCO phase 0:
# u_re*1.0 + u_im*0.0 and u_im*1.0 - u_re*0.0, which turn -0.0 into +0.0
# beside a positive u_im or a negative u_re (a list: as dict keys, 0.0 and
# -0.0 are one key)
SIGNED_ZEROS = [
    ((0.0, 1.0), (0.0, 1.0)), ((-0.0, 1.0), (0.0, 1.0)),
    ((0.0, -1.0), (0.0, -1.0)), ((-0.0, -1.0), (-0.0, -1.0)),
    ((1.0, 0.0), (1.0, 0.0)), ((1.0, -0.0), (1.0, -0.0)),
    ((-1.0, 0.0), (-1.0, 0.0)), ((-1.0, -0.0), (-1.0, 0.0)),
    ((0.0, 0.0), (0.0, 0.0)),
]
# ud on those inputs, in their order, by the stated rules: sign(0) := +1,
# v = um times the conjugate decision, Im(v) or arg(v) at its principal
# value with -P/2 folded to +P/2, and 0.0 at um == 0
HALF_PI, QUARTER_PI = math.pi / 2, math.pi / 4
SIGNED_ZERO_UD = {
    MOD_BPSK_PHASE: [HALF_PI, HALF_PI, HALF_PI, HALF_PI, 0.0, -0.0, -0.0, -0.0, 0.0],
    MOD_BPSK_IMAG: [1.0, 1.0, -1.0, -1.0, 0.0, -0.0, -0.0, -0.0, 0.0],
    MOD_QPSK_PHASE: [QUARTER_PI] * 8 + [0.0],
    MOD_QPSK_IMAG: [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 0.0],
}


class TestSamplePdTable:
    """The tie-breaks of the sample-level PDs, as the built sample loop
    runs them."""

    def test_one_entry_per_variant_and_flavor(self, pd_sample):
        # every pair LoopVariant accepts has a loop, and it is one of the six
        pairs = []
        for tag, flavor in itertools.product(VariantTag, PdFlavor):
            try:
                variant = LoopVariant(tag, flavor)
            except ValueError:
                continue
            pairs.append(variant)
            pd_sample(variant, *[0.5] * (1 if variant.is_conventional else 2))
        assert sorted(pairs, key=PAIRS.index) == PAIRS

    def test_bpsk_tie_folds_to_plus_half_pi(self, pd_sample):
        assert on_envelope(pd_sample, MOD_BPSK_PHASE, complex(0.0, -1.0)) == math.pi / 2

    def test_qpsk_tie_folds_to_plus_quarter_pi(self, pd_sample):
        assert on_envelope(pd_sample, MOD_QPSK_PHASE, complex(1.0, 0.0)) == math.pi / 4

    @pytest.mark.parametrize("key", [(v.tag, v.pd_flavor) for v in PAIRS])
    def test_zero_input_gives_zero(self, pd_sample, key):
        variant = LoopVariant(*key)
        assert pd_sample(variant, *[0.0] * (1 if variant.is_conventional else 2))[0] == 0.0

    @pytest.mark.parametrize("variant", list(SIGNED_ZERO_UD),
                             ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}")
    def test_signed_zero_inputs(self, pd_sample, variant):
        for ((u_re, u_im), (i2, q2)), want in zip(SIGNED_ZEROS, SIGNED_ZERO_UD[variant]):
            ud, got_i2, got_q2 = pd_sample(variant, u_re, u_im)
            assert (got_i2.hex(), got_q2.hex()) == (i2.hex(), q2.hex()), (u_re, u_im)
            assert ud.hex() == want.hex(), (u_re, u_im)

    def test_conventional_qpsk_signed_zero_q2(self, pd_sample):
        # at NCO phase 0 the QPSK mixer's q branch is u*0.0: +0.0 for u > 0
        # (-0.0 for u < 0), and sign(+-0.0) := +1 gives ud = i2 - q2*sign(i2)
        assert [pd_sample(CONVENTIONAL_QPSK, u) for u in (1.0, -1.0, 0.0)] == [
            (1.0, 1.0, 0.0), (-1.0, -1.0, -0.0), (0.0, 0.0, 0.0)]
        for u, q2 in ((1.0, "0x0.0p+0"), (-1.0, "-0x0.0p+0")):
            assert pd_sample(CONVENTIONAL_QPSK, u)[2].hex() == q2


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

    def test_sample_level_matches_baseband_bpsk(self, pd_sample):
        th = self.rng.uniform(-10, 10, N_RANDOM)
        m1 = self.rng.choice([-1.0, 1.0], N_RANDOM)
        for t, m in zip(th[:2000], m1[:2000]):
            i2 = m * math.cos(t)
            q2 = m * math.sin(t)
            assert on_branches(pd_sample, CONVENTIONAL_BPSK, i2, q2) == pytest.approx(
                phi_bpsk(t, 1.0), abs=1e-12
            )

    def test_sample_level_matches_baseband_qpsk(self, pd_sample):
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
            assert on_branches(pd_sample, CONVENTIONAL_QPSK, i2, q2) == pytest.approx(
                phi_qpsk(t, 1.0), abs=1e-9
            )
            count += 1
            if count >= 2000:
                break

    def test_modified_pd_output_range(self, pd_sample):
        z = self.rng.normal(size=(N_RANDOM, 2))
        for re, im in z.tolist():
            if re == 0 and im == 0:
                continue
            assert -math.pi / 2 < pd_sample(MOD_BPSK_PHASE, re, im)[0] <= math.pi / 2
            assert -math.pi / 4 < pd_sample(MOD_QPSK_PHASE, re, im)[0] <= math.pi / 4

    def test_characteristic_m_validation(self):
        with pytest.raises(ValueError):
            PdCharacteristic(CONVENTIONAL_BPSK, m=0.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 0.0, -0.5, True])
    def test_characteristic_m_must_be_finite_and_positive(self, m):
        # a NaN m fails no comparison, so it needs the finiteness check
        with pytest.raises(ValueError, match=r"m must be|must be > 0"):
            PdCharacteristic(CONVENTIONAL_BPSK, m=m)
