import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
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
    SimResult,
    VariantTag,
    pd_period,
    wrap_phase,
)
from costas_lab.core import REL_TOL, bisect, count_cycle_slips, lock_cells


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

    @pytest.mark.parametrize("period", [math.pi, math.pi / 2])
    def test_wrap_phase_ties_wrap_to_lower_edge(self, period):
        # the range is [-P/2, P/2): an odd multiple of P/2 sits at the lower
        # edge of the lock cell count_cycle_slips puts it in
        ties = [0.5 * period, -0.5 * period, 1.5 * period, -1.5 * period]
        for theta in ties:
            assert wrap_phase(theta, period) == -period / 2
        assert wrap_phase(np.array(ties), period).tolist() == [-period / 2] * len(ties)

    def test_delta_omega0_exact(self):
        p = LoopParams(2.0e6, 1.7e6, 1e6, 1.0, 2e-5, 4e-6)
        assert p.delta_omega0 == 0.3e6

    def test_with_offset(self):
        p = LoopParams(2.0e6, 2.0e6, 1e6, 1.0, 2e-5, 4e-6)
        q = p.with_offset(1234.5)
        assert q.delta_omega0 == pytest.approx(1234.5, abs=1e-9)
        assert q.omega_n == p.omega_n

    @pytest.mark.parametrize("delta_omega0", [math.inf, -math.inf, math.nan, -1.7e308])
    def test_with_offset_refuses_non_finite_omega_free(self, delta_omega0):
        p = LoopParams(1.7e308, 1.7e308, 1e6, 1.0, 2e-5, 4e-6)
        with pytest.raises(ValueError, match=r"derived constant delta_omega0 = .* is out of "
                                             r"range: omega1 - delta_omega0 must be finite"):
            p.with_offset(delta_omega0)

    def test_with_offset_refuses_an_offset_lost_in_omega1(self):
        # at 400 kHz half an ulp of omega1 is 2.3e-10 rad/s: 2e-10 would
        # retune to a zero offset, 1e-9 to 9.3e-10
        p = LoopParams(2 * math.pi * 400e3, 2 * math.pi * 400e3, 1e6, 1.0, 2e-5, 4e-6)
        with pytest.raises(ValueError, match=r"^offset delta_omega0 = 2e-10 rad/s is below the "
                                             r"resolution of omega1 = 2513274.1228718343 rad/s"):
            p.with_offset(2e-10)
        assert p.with_offset(0.0).delta_omega0 == 0.0
        with pytest.raises(ValueError, match=r"^offset delta_omega0 = 1e-09 rad/s is too fine "
                                             r"for the resolution of omega1 = 2513274.1228718343 "
                                             r"rad/s: it retunes to 9.313225746154785e-10, more "
                                             r"than 1e-09 relative off$"):
            p.with_offset(1e-9)

    @pytest.mark.parametrize("delta_omega0", [2.4e-10, 7e-10, 1e-6, -1e-6])
    def test_with_offset_refuses_an_offset_omega1_rounds(self, delta_omega0):
        # each retunes to a nonzero offset more than REL_TOL off: 1e-6 to
        # 9.9977e-07, 2.3e-4 relative
        p = LoopParams(2 * math.pi * 400e3, 2 * math.pi * 400e3, 1e6, 1.0, 2e-5, 4e-6)
        with pytest.raises(ValueError, match=rf"^offset delta_omega0 = {delta_omega0!r} rad/s "
                                             r"is too fine for the resolution of omega1"):
            p.with_offset(delta_omega0)

    @pytest.mark.parametrize("delta_omega0", [0.5, 1.0, 6.28, -6.28])
    def test_with_offset_keeps_an_offset_within_rel_tol(self, delta_omega0):
        # 6.28 retunes to 6.2799999998, 3.3e-11 relative off
        p = LoopParams(2 * math.pi * 400e3, 2 * math.pi * 400e3, 1e6, 1.0, 2e-5, 4e-6)
        realized = p.with_offset(delta_omega0).delta_omega0
        assert abs(realized - delta_omega0) <= REL_TOL * abs(delta_omega0)
        assert (realized == delta_omega0) == (abs(delta_omega0) != 6.28)

    def test_cycle_slip_count_monotone_ramp(self):
        theta = np.linspace(0.0, 5.2 * math.pi, 4000)
        assert count_cycle_slips(theta, math.pi) == 5

    def test_cycle_slip_count_back_and_forth(self):
        theta = np.array([0.0, 0.6 * math.pi, 0.4 * math.pi, 0.6 * math.pi, 0.0])
        # crossing the pi/2 boundary out, back, out, back = 4 crossings
        assert count_cycle_slips(theta, math.pi) == 4

    def test_cycle_slip_count_past_int64_cells(self):
        # 1e300/pi cells is past 2**63: counted on the float cells, without
        # an integer cast that overflows to a negative count and warns
        cells = math.floor(1e300 / math.pi + 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in ([0.0, 1e300], [0.0, -1e300], [1e300, 0.0]):
                assert count_cycle_slips(np.array(theta), math.pi) == cells > 2**63

    def test_cycle_slip_count_same_as_integer_cells(self):
        # below 2**53 cells the float count is the integer count
        theta = np.cumsum(np.random.default_rng(5).normal(0.0, 4.0, 10_000)) * 1e9
        cells = np.floor(theta / math.pi + 0.5).astype(np.int64)
        assert count_cycle_slips(theta, math.pi) == int(np.abs(np.diff(cells)).sum())


def parent_wrap_phase(theta, period):
    """``wrap_phase`` as it was before it shared :func:`lock_cells`."""
    return theta - period * np.floor(np.asarray(theta, dtype=float) / period + 0.5)


def parent_count_cycle_slips(theta_e, period):
    """``count_cycle_slips`` as it was before it shared :func:`lock_cells`."""
    return int(np.abs(np.diff(np.floor(np.asarray(theta_e) / period + 0.5))).sum())


def _edge_phases(period):
    """Ties (k + 1/2)*P and their neighbouring floats, signed zeros, the
    smallest subnormals and offsets near 1e300 (past 2**63 cells)."""
    ties = [(k + 0.5) * period * sign for k in range(4) for sign in (1.0, -1.0)]
    near = [math.nextafter(x, to) for x in ties for to in (-math.inf, math.inf)]
    return ties + near + [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                          math.nextafter(1e300, 0.0), 2.5e300]


class TestLockCells:
    """``lock_cells`` is the one floor(theta/P + 1/2): ``wrap_phase`` and
    ``count_cycle_slips`` return what they returned with their own."""

    PERIODS = [math.pi, math.pi / 2]

    @pytest.mark.parametrize("period", PERIODS)
    def test_wrap_phase_edges(self, period):
        edges = _edge_phases(period)
        for theta in edges:
            assert wrap_phase(theta, period).hex() == float(parent_wrap_phase(theta, period)).hex()
        want = parent_wrap_phase(np.array(edges), period)
        assert wrap_phase(np.array(edges), period).tobytes() == want.tobytes()

    @pytest.mark.parametrize("period", PERIODS)
    def test_count_cycle_slips_edges(self, period):
        edges = _edge_phases(period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in edges:
                for b in edges:
                    theta = np.array([a, b, 0.0, a])
                    assert count_cycle_slips(theta, period) == \
                        parent_count_cycle_slips(theta, period)
            assert count_cycle_slips(np.array(edges), period) == \
                parent_count_cycle_slips(np.array(edges), period)

    @pytest.mark.parametrize("period", PERIODS)
    def test_nan(self, period):
        # a NaN phase wraps to NaN, and its cells leave no slip count
        assert math.isnan(wrap_phase(math.nan, period))
        theta = np.array([0.0, math.nan, 2.0 * period])
        assert np.isnan(wrap_phase(theta, period)).tolist() == [False, True, False]
        with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
            parent_count_cycle_slips(theta, period)
        with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
            count_cycle_slips(theta, period)

    @pytest.mark.parametrize("period", PERIODS)
    def test_cells_written_into_out(self, period):
        theta = np.array(_edge_phases(period))
        want = np.floor(theta / period + 0.5)
        assert lock_cells(theta, period).tobytes() == want.tobytes()
        out = np.full(len(theta), np.nan)
        assert lock_cells(theta, period, out) is out and out.tobytes() == want.tobytes()
        out[:] = np.nan
        assert count_cycle_slips(theta, period, out=out) == \
            parent_count_cycle_slips(theta, period)
        assert out.tobytes() == want.tobytes()


class TestBisect:
    def test_halves_until_done(self):
        seen = []

        def below(x):
            seen.append(x)
            return x < 2.5

        assert bisect(below, 0.0, 8.0, lambda lo, hi: hi - lo <= 1.0) == (2.0, 3.0)
        # the ends are the caller's: only midpoints are evaluated
        assert seen == [4.0, 2.0, 3.0]

    def test_done_at_entry_evaluates_nothing(self):
        def never(x):
            raise AssertionError("evaluated")

        assert bisect(never, 1.0, 2.0, lambda lo, hi: True) == (1.0, 2.0)

    @pytest.mark.parametrize("lo,hi", [(1.0, 2.0), (-3e300, 5e-300), (0.0, 5e-324),
                                       (1e16, 1e16 + 64.0)])
    def test_stops_on_adjacent_floats(self, lo, hi):
        root = lo + (hi - lo) / 3.0
        lo2, hi2 = bisect(lambda x: x <= root, lo, hi, lambda lo, hi: False)
        assert lo2 <= root < hi2 and math.nextafter(lo2, math.inf) == hi2


PUBLIC_NAMES = {
    "CONVENTIONAL_BPSK", "CONVENTIONAL_QPSK", "ClassicPhaseModel", "DelayModel",
    "DesignSpec", "LoopParams", "LoopVariant", "MODIFIED_BPSK", "MODIFIED_QPSK",
    "PdCharacteristic", "PdFlavor", "SimResult", "VariantTag",
    "analysis", "averaged_ud", "baseband", "classic_rhs", "core",
    "delay_rhs", "design", "detectors", "hold_in_leadlag", "hold_in_pi", "lock_in_range",
    "lock_time", "pd_period", "phi_bpsk", "phi_qpsk", "predict", "pull_in_range",
    "pull_in_range_numeric", "pull_in_time", "pull_in_time_formula", "wrap_phase",
}


def test_public_api_pinned():
    # a fresh interpreter: submodules other tests import (cli, ode,
    # signal_sim) would otherwise appear as package attributes
    code = "import costas_lab; print(*sorted(n for n in dir(costas_lab) if n[0] != '_'))"
    env = {**os.environ, "PYTHONPATH": str(Path(costas_lab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert len(PUBLIC_NAMES) == 34
    assert out == sorted(PUBLIC_NAMES)


def test_sim_result_fields_pinned():
    # each result is stored once: the lock instant is t_lock, and locked
    # and pull_in_time read it
    assert [f.name for f in fields(SimResult)] == [
        "t", "theta_e", "ud", "uf", "omega2", "i2", "q2", "t_lock",
        "cycle_slips", "final_freq_error", "f_samp"]
    assert isinstance(SimResult.locked, property)
    assert isinstance(SimResult.pull_in_time, property)
