import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import costas_lab
from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    LoopParams,
    LoopVariant,
    PdFlavor,
    VariantTag,
    pd_period,
    wrap_phase,
)
from costas_lab.core import count_cycle_slips


class TestLoopVariant:
    def test_flavor_defaults(self):
        assert CONVENTIONAL_BPSK.pd_flavor is PdFlavor.MUL_MUL
        assert CONVENTIONAL_QPSK.pd_flavor is PdFlavor.SGN_CROSS
        assert MODIFIED_BPSK.pd_flavor is PdFlavor.COMPLEX_PHASE

    @pytest.mark.parametrize(
        "tag,flavor",
        [
            (VariantTag.CONVENTIONAL_BPSK, PdFlavor.SGN_CROSS),
            (VariantTag.CONVENTIONAL_BPSK, PdFlavor.COMPLEX_PHASE),
            (VariantTag.CONVENTIONAL_QPSK, PdFlavor.MUL_MUL),
            (VariantTag.MODIFIED_QPSK, PdFlavor.MUL_MUL),
        ],
    )
    def test_invalid_flavor_combinations_rejected(self, tag, flavor):
        with pytest.raises(ValueError):
            LoopVariant(tag, flavor)

    def test_alternative_pd_flavor_allowed_for_modified(self):
        v = LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG)
        assert v.is_modified and not v.is_qpsk


class TestPdPeriod:
    def test_bpsk_period_pi(self):
        assert pd_period(CONVENTIONAL_BPSK) == math.pi

    def test_qpsk_period_quarter(self):
        assert pd_period(CONVENTIONAL_QPSK) == math.pi / 2

    def test_modified_qpsk_period_quarter(self):
        assert pd_period(MODIFIED_QPSK) == math.pi / 2

    def test_total_over_variants(self):
        for v in (CONVENTIONAL_BPSK, CONVENTIONAL_QPSK, MODIFIED_BPSK, MODIFIED_QPSK):
            assert pd_period(v) in (math.pi, math.pi / 2)


REFERENCE_GAINS = dict(omega1=2.512e6, omega_free=2.512e6, k0=1262000.0, kd=1.0,
                       tau1=20e-6, tau2=4e-6, omega3=1256000.0)


class TestValidateParams:
    """``LoopParams.from_dict`` is the one reader of a params object: derived
    keys are checked against the gains, never trusted."""

    def test_reference_design_consistent(self):
        # the gains reproduce the printed 2-figure omega_n and zeta, but a
        # params object stating the rounded omega_n is rejected at 1e-9
        p = LoopParams.from_dict(REFERENCE_GAINS)
        assert p.omega_n == pytest.approx(251000.0, rel=1e-2)
        assert p.zeta == pytest.approx(0.5, rel=1e-2)
        with pytest.raises(ValueError, match="omega_n"):
            LoopParams.from_dict({**REFERENCE_GAINS, "omega_n": 251000.0})

    def test_qpsk_reference_gains_consistent(self):
        p = LoopParams.from_dict({**REFERENCE_GAINS, "k0": 631000.0, "kd": 2.0})
        assert abs(p.omega_n - 251197.0) < 1.0
        assert LoopParams.from_dict(p.to_dict()) == p

    def test_zero_natural_frequency_flagged(self):
        with pytest.raises(ValueError, match="omega_n"):
            LoopParams.from_dict({**REFERENCE_GAINS, "omega_n": 0.0, "zeta": 0.5})

    def test_nonpositive_constants_flagged(self):
        with pytest.raises(ValueError, match="tau2"):
            LoopParams.from_dict({**REFERENCE_GAINS, "tau2": -4e-6})

    def test_round_trip_relation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k0 = 10 ** rng.uniform(3, 7)
            kd = rng.uniform(0.5, 4.0)
            tau1 = 10 ** rng.uniform(-6, -3)
            tau2 = tau1 * rng.uniform(0.05, 0.9)
            p = LoopParams(0.0, 0.0, k0, kd, tau1, tau2)
            assert abs(p.omega_n**2 * p.tau1 - k0 * kd) <= 1e-12 * k0 * kd
            assert abs(2 * p.zeta / p.omega_n - tau2) <= 1e-12 * tau2


class TestPhaseHelpers:
    def test_wrap_phase_scalar(self):
        assert wrap_phase(3.6 * math.pi, math.pi) == pytest.approx(-0.4 * math.pi)
        assert wrap_phase(-0.2) == pytest.approx(-0.2)

    def test_delta_omega0_exact(self):
        p = LoopParams(2.0e6, 1.7e6, 1e6, 1.0, 2e-5, 4e-6)
        assert p.delta_omega0 == 0.3e6

    def test_with_offset(self):
        p = LoopParams(2.0e6, 2.0e6, 1e6, 1.0, 2e-5, 4e-6)
        q = p.with_offset(1234.5)
        assert q.delta_omega0 == pytest.approx(1234.5, abs=1e-9)
        assert q.omega_n == p.omega_n

    def test_cycle_slip_count_monotone_ramp(self):
        theta = np.linspace(0.0, 5.2 * math.pi, 4000)
        assert count_cycle_slips(theta, math.pi) == 5

    def test_cycle_slip_count_back_and_forth(self):
        theta = np.array([0.0, 0.6 * math.pi, 0.4 * math.pi, 0.6 * math.pi, 0.0])
        # crossing the pi/2 boundary out, back, out, back = 4 crossings
        assert count_cycle_slips(theta, math.pi) == 4


PUBLIC_NAMES = {
    "AveragedModel", "CONVENTIONAL_BPSK", "CONVENTIONAL_QPSK", "ClassicPhaseModel",
    "DelayModel", "DesignSpec", "LoopParams", "LoopVariant", "MODIFIED_BPSK",
    "MODIFIED_QPSK", "PdCharacteristic", "PdFlavor", "PredictionReport", "SimResult",
    "VariantTag", "analysis", "averaged_rhs", "averaged_ud", "baseband", "classic_rhs",
    "core", "delay_rhs", "design", "detectors", "hold_in_leadlag", "hold_in_pi",
    "lock_in_range", "lock_time", "pd_conventional_bpsk", "pd_conventional_qpsk",
    "pd_modified_bpsk", "pd_modified_imag", "pd_modified_qpsk", "pd_period", "phi_bpsk",
    "phi_qpsk", "predict", "pull_in_range", "pull_in_range_numeric", "pull_in_time",
    "pull_in_time_formula", "routh_hurwitz_stable", "wrap_phase",
}


def test_public_api_pinned():
    # a fresh interpreter: submodules other tests import (cli, ode,
    # signal_sim) would otherwise appear as package attributes
    code = "import costas_lab; print(*sorted(n for n in dir(costas_lab) if n[0] != '_'))"
    env = {**os.environ, "PYTHONPATH": str(Path(costas_lab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert len(PUBLIC_NAMES) == 43
    assert out == sorted(PUBLIC_NAMES)
