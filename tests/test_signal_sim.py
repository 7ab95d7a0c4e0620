import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    ClassicPhaseModel,
    DesignSpec,
    LoopParams,
    LoopVariant,
    PdCharacteristic,
    classic_rhs,
    design,
    lock_time,
    wrap_phase,
)
from costas_lab import signal_sim
from costas_lab.core import CSV_BLOCK, write_csv_rows
from costas_lab.detectors import SAMPLE_PD
from costas_lab.ode import IntegratorConfig, integrate
from costas_lab.signal_sim import (
    MAX_SAMPLES,
    ConfigError,
    DigitalLoop,
    LockDetector,
    ModulatedSource,
    NotLockedError,
    NumericBlowUp,
    SearchError,
    demod_ber,
    export_csv,
    measure_pull_in_range,
    prbs_symbols,
    run_loop,
)

TWO_PI = 2.0 * math.pi
F_SAMP = 3.2e6


def bpsk_source(**kw):
    return ModulatedSource(CONVENTIONAL_BPSK, f_carrier=400e3, f_symbol=100e3, **kw)


class TestPrbs:
    def test_deterministic(self):
        a = prbs_symbols(0x1234, 256)
        b = prbs_symbols(0x1234, 256)
        assert np.array_equal(a, b)

    def test_balanced_ish(self):
        s = prbs_symbols(0xCAFE, 4096)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) < 0.08

    def test_zero_seed_remapped(self):
        assert len(prbs_symbols(0, 16)) == 16

    def test_streams_differ(self):
        src = bpsk_source()
        a = src.symbols(128, 0)
        b = src.symbols(128, 1)
        assert not np.array_equal(a, b)

    def test_ones_mode(self):
        src = bpsk_source(data_mode="ones")
        assert np.all(src.symbols(64, 0) == 1.0)


class TestConfigValidation:
    def test_symbol_rate_above_carrier_rejected(self):
        with pytest.raises(ConfigError):
            ModulatedSource(CONVENTIONAL_BPSK, f_carrier=100e3, f_symbol=200e3)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_modulation_amplitude_must_be_finite_and_positive(self, m):
        # the CLI's check_real path: 0 < m < inf, raised as ConfigError
        with pytest.raises(ConfigError, match=r"m must be finite|must be > 0"):
            bpsk_source(m=m)

    def test_nyquist_guard(self, bpsk_reference_params):
        src = bpsk_source()
        loop = DigitalLoop(bpsk_reference_params, f_samp=1.2e6)
        with pytest.raises(ConfigError):
            run_loop(src, loop, 1e-3)

    def test_hilbert_delay_alignment(self, modified_reference_params):
        loop = DigitalLoop(modified_reference_params, f_samp=3.2e6)
        assert loop.hilbert_delay_samples(400e3) == 2
        loop_bad = DigitalLoop(modified_reference_params, f_samp=2.0e6)
        with pytest.raises(ConfigError):
            loop_bad.hilbert_delay_samples(400e3)  # 5 samples/cycle, not mult of 4

    def test_unknown_hilbert_mode(self, modified_reference_params):
        with pytest.raises(ConfigError):
            DigitalLoop(modified_reference_params, f_samp=3.2e6, hilbert_mode="fir")

    def test_blow_up_reports_sample_index(self, bpsk_reference_params):
        # absurd VCO gain drives the accumulator out of range
        from costas_lab import LoopParams

        p = LoopParams(
            bpsk_reference_params.omega1, bpsk_reference_params.omega_free,
            1e30, 1.0, 20e-6, 4e-6, omega3=1256000.0,
        )
        with pytest.raises(NumericBlowUp) as err:
            run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 1e-4)
        assert err.value.sample_index >= 0

    @pytest.mark.parametrize("duration", [(MAX_SAMPLES + 1) / F_SAMP, 1e9, math.inf, math.nan])
    def test_sample_cap(self, bpsk_reference_params, duration):
        # rejected before anything is allocated, so the size costs nothing
        with pytest.raises(ConfigError):
            run_loop(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP), duration)


class TestLockMeasurement:
    def test_zero_offset_locks_fast_no_slips(self, bpsk_reference_params):
        r = run_loop(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP), 1e-3)
        assert r.locked
        assert r.t_lock <= lock_time(bpsk_reference_params)
        assert r.cycle_slips == 0

    def test_reference_pull_in_time_band(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 50e3)
        r = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 1.5e-3)
        assert r.locked
        assert 15e-6 <= r.pull_in_time <= 45e-6  # reference run measured 30 us

    def test_beyond_pull_in_never_locks(self, bpsk_reference_params):
        # 180 kHz exceeds the simulated pull-in range (~130 kHz)
        p = bpsk_reference_params.with_offset(TWO_PI * 180e3)
        r = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 5e-3)
        assert not r.locked
        assert r.cycle_slips > 50

    def test_locked_residual_uf(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 50e3)
        r = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 1.5e-3)
        tail = r.uf[-1600:]
        assert tail.mean() == pytest.approx(p.delta_omega0 / p.k0, rel=0.01)

    def test_nco_phase_continuity(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 100e3)
        r = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 1e-3)
        dphase = np.abs(r.omega2) / F_SAMP
        assert np.max(dphase) < math.pi

    def test_determinism_bit_identical(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 70e3)
        a = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 8e-4)
        b = run_loop(bpsk_source(), DigitalLoop(p, F_SAMP), 8e-4)
        assert np.array_equal(a.theta_e, b.theta_e)
        assert np.array_equal(a.uf, b.uf)
        assert a.t_lock == b.t_lock

    def test_beat_waveform_matches_analytic(self, bpsk_reference_params):
        # unlocked PD output ~ (Kd/2) sin(2 dw t) when the beat sits far
        # below the LPF corner and far above the lock-in range; a weak-gain
        # loop keeps the beat stationary over several periods
        from costas_lab import LoopParams

        b = bpsk_reference_params
        p = LoopParams(
            b.omega1, b.omega_free, b.k0 / 50.0, b.kd, b.tau1, b.tau2,
            omega3=b.omega3,
        ).with_offset(TWO_PI * 30e3)
        src = bpsk_source(data_mode="ones")
        r = run_loop(src, DigitalLoop(p, F_SAMP), 4e-4)
        dw = p.delta_omega0
        beat = int(round(math.pi / dw * F_SAMP))  # one period of sin(2 dw t)
        sel = slice(beat, 4 * beat)               # skip the LPF charge-up
        ud = r.ud[sel]
        ref = np.exp(-2j * dw * r.t[sel])
        # correlation against the best-phase sine at the beat frequency
        # (a pure sine scores 1; residual double-frequency ripple lowers it)
        corr = math.sqrt(2.0) * abs(np.vdot(ref, ud)) / (
            np.linalg.norm(ud) * np.linalg.norm(ref)
        )
        assert corr > 0.9
        # demodulated beat amplitude close to Kd/2 (less the small LPF droop)
        amp = 2.0 * abs(np.vdot(ref, ud)) / len(ud)
        assert amp == pytest.approx(p.kd / 2, rel=0.1)

    def test_detector_from_params(self, bpsk_reference_params):
        det = LockDetector.for_params(bpsk_reference_params)
        assert det.freq_tol == pytest.approx(0.01 * bpsk_reference_params.omega_n)
        assert det.freq_window == pytest.approx(4 * TWO_PI / bpsk_reference_params.omega_n)
        assert det.phase_tol == 0.1


class TestModifiedLoops:
    def test_mod_bpsk_locks_zero_offset(self, modified_reference_params):
        src = ModulatedSource(MODIFIED_BPSK, 400e3, 100e3)
        r = run_loop(src, DigitalLoop(modified_reference_params, F_SAMP,
                                      hilbert_mode="ideal"), 6e-4)
        assert r.locked and r.cycle_slips == 0

    def test_mod_bpsk_delay_hilbert_locks(self, modified_reference_params):
        # quarter-carrier-cycle delay realization acquires as well; the
        # NRZ edge glitches only perturb the detector latching time
        src = ModulatedSource(MODIFIED_BPSK, 400e3, 100e3)
        p = modified_reference_params.with_offset(TWO_PI * 20e3)
        r = run_loop(src, DigitalLoop(p, F_SAMP, hilbert_mode="delay"), 2e-3)
        assert r.locked

    def test_mod_qpsk_locks_with_offset(self, modified_reference_params):
        src = ModulatedSource(MODIFIED_QPSK, 400e3, 100e3)
        p = modified_reference_params.with_offset(TWO_PI * 50e3)
        r = run_loop(src, DigitalLoop(p, 12.8e6, hilbert_mode="ideal"), 6e-4)
        assert r.locked
        assert r.pull_in_time < 40e-6

    def test_i2_q2_carry_envelope(self, modified_reference_params):
        src = ModulatedSource(MODIFIED_QPSK, 400e3, 100e3)
        r = run_loop(src, DigitalLoop(modified_reference_params, F_SAMP,
                                      hilbert_mode="ideal"), 4e-4)
        # locked: |um| ~ sqrt(2) for unit-amplitude quadrature data
        mag = np.hypot(r.i2[-500:], r.q2[-500:])
        assert np.median(mag) == pytest.approx(math.sqrt(2), rel=0.05)


class TestKernelPd:
    @pytest.mark.parametrize(
        "variant",
        [LoopVariant(tag, flavor) for tag, flavor in SAMPLE_PD],
        ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}",
    )
    def test_ud_is_the_table_pd_of_recorded_branches(self, variant):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        loop = DigitalLoop(p.with_offset(TWO_PI * 50e3), F_SAMP)
        r = run_loop(ModulatedSource(variant, 400e3, 100e3), loop, 3e-4)
        pd = SAMPLE_PD[(variant.tag, variant.pd_flavor)]
        expect = np.array([pd(i, q) for i, q in zip(r.i2.tolist(), r.q2.tolist())])
        assert expect.tobytes() == r.ud.tobytes()


class TestRecording:
    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK,
                                         MODIFIED_BPSK, MODIFIED_QPSK],
                             ids=lambda v: v.tag.value)
    def test_arrays_are_contiguous_float64_of_length_n(self, variant):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        r = run_loop(ModulatedSource(variant, 400e3, 100e3), DigitalLoop(p, F_SAMP), 1e-4)
        for name in ("t", "theta_e", "ud", "uf", "omega2", "i2", "q2"):
            a = getattr(r, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous, name
            assert a.shape == (320,), name

    def test_traced_bytes_per_sample(self, bpsk_reference_params):
        # 105 B per sample measured on this run (the seven recorded float64
        # arrays are 56 B), 113 B with the whole-run phase-distance array
        # kept through lock detection; recording into Python lists peaked
        # at 264 B
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        tracemalloc.start()
        try:
            r = run_loop(bpsk_source(), loop, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 150

    def test_traced_bytes_per_sample_mod_qpsk_delay_hilbert(self, modified_reference_params):
        # the delayed front end: 112 B per sample measured with one
        # pre-envelope grid and the front-end arrays freed before the sample
        # loop, 168 B with them kept alive through it
        p = modified_reference_params.with_offset(TWO_PI * 100e3)
        loop = DigitalLoop(p, 12.8e6, hilbert_mode="delay")
        tracemalloc.start()
        try:
            r = run_loop(ModulatedSource(MODIFIED_QPSK, 400e3, 100e3), loop, 1.25e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 150


class TestDemod:
    def test_bpsk_zero_errors(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 50e3)
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1.5e-3)
        assert demod_ber(r, src) == 0.0

    def test_qpsk_zero_errors_under_rotation(self, qpsk_reference_params):
        src = ModulatedSource(CONVENTIONAL_QPSK, 400e3, 100e3)
        p = qpsk_reference_params.with_offset(TWO_PI * 40e3)
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1.5e-3)
        assert r.locked
        assert demod_ber(r, src) == 0.0

    def test_modified_qpsk_zero_errors(self, modified_reference_params):
        src = ModulatedSource(MODIFIED_QPSK, 400e3, 100e3)
        p = modified_reference_params.with_offset(TWO_PI * 30e3)
        r = run_loop(src, DigitalLoop(p, 12.8e6, hilbert_mode="ideal"), 1.2e-3)
        assert demod_ber(r, src) == 0.0

    def test_unlocked_rejected(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 180e3)
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1e-3)
        assert not r.locked
        with pytest.raises(NotLockedError):
            demod_ber(r, src)


class TestPullInSearch:
    def test_reference_bpsk_range(self, bpsk_reference_params):
        src = bpsk_source()
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        f = measure_pull_in_range(src, loop, (110e3, 160e3), budget=5e-3)
        assert 120e3 <= f <= 150e3  # reference simulation found 133 kHz

    def test_invalid_bracket_rejected(self, bpsk_reference_params):
        src = bpsk_source()
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        with pytest.raises(SearchError):
            measure_pull_in_range(src, loop, (300e3, 400e3), budget=1e-3)
        with pytest.raises(SearchError):
            measure_pull_in_range(src, loop, (160e3, 110e3), budget=1e-3)

    @pytest.mark.parametrize("resolution", [0.0, -1e3, math.nan, math.inf])
    def test_bad_resolution_rejected_before_any_trial(self, bpsk_reference_params,
                                                      monkeypatch, resolution):
        def no_trial(*args):
            raise AssertionError("run_loop called")

        monkeypatch.setattr(signal_sim, "run_loop", no_trial)
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        with pytest.raises(SearchError, match="resolution"):
            measure_pull_in_range(bpsk_source(), loop, (110e3, 160e3), budget=1e-3,
                                  resolution=resolution)

    def test_trial_sequence(self, bpsk_reference_params, monkeypatch):
        # the ends, then one trial per halving of the 128 kHz bracket to 1 kHz
        trials = []
        monkeypatch.setattr(signal_sim, "run_loop", lambda source, loop, duration, detector:
                            SimpleNamespace(locked=loop.params.delta_omega0 <= TWO_PI * 133e3))
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        f = measure_pull_in_range(bpsk_source(), loop, (60e3, 188e3),
                                  budget=lambda f: trials.append(f) or 1e-3)
        assert f == 133e3
        assert trials == [60e3, 188e3, 124e3, 156e3, 140e3, 132e3, 136e3, 134e3, 133e3]

    def test_tiny_resolution_ends_on_adjacent_floats(self, bpsk_reference_params,
                                                     monkeypatch):
        # no bisection exists below one ulp: the search stops there
        limit = TWO_PI * 133e3
        trials = []

        def stub(source, loop, duration, detector):
            trials.append(loop.params.delta_omega0)
            return SimpleNamespace(locked=loop.params.delta_omega0 <= limit)

        monkeypatch.setattr(signal_sim, "run_loop", stub)
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        f = measure_pull_in_range(bpsk_source(), loop, (110e3, 160e3), budget=1e-3,
                                  resolution=1e-300)
        assert len(trials) < 100
        assert abs(f - 133e3) < 1e-9


def averaging_gap(f_samp=3.2e6, omega3_scale=1.0):
    """Steady-state lock phases (theta_phase, theta_signal, locked_both) of
    one loop at phase and at signal fidelity, from the same initial data.

    Conventional BPSK on a 400 kHz carrier, detuned by 600e3 rad/s, with
    K0 = 4.8e6, tau1 = 20 us, tau2 = 3.9789 us and the LPF corner
    1.2566e6 rad/s times ``omega3_scale``; both run for 400 us.  The phase
    model assumes ideal LPFs and parks the phase error on the PD null; the
    signal model keeps the double-frequency products the LPFs only partly
    suppress, so its locked phase sits at a small offset."""
    f_carrier, duration, period = 400e3, 400e-6, math.pi
    omega1 = TWO_PI * f_carrier
    params = LoopParams(omega1=omega1, omega_free=omega1 - 600e3, k0=4.8e6, kd=1.0,
                        tau1=2e-5, tau2=3.9789e-6, omega3=1.2566e6 * omega3_scale)
    model = ClassicPhaseModel(params, PdCharacteristic(CONVENTIONAL_BPSK, m=1.0))
    traj = integrate(lambda t, y: classic_rhs(model, t, y), (0.0, 0.0),
                     IntegratorConfig(t_end=duration, method="rk45", rtol=1e-10, atol=1e-12))
    tail = wrap_phase(traj.y[traj.t >= 0.8 * duration, 1], period)
    source = ModulatedSource(CONVENTIONAL_BPSK, f_carrier=f_carrier,
                             f_symbol=f_carrier / 4.0, data_mode="ones")
    res = run_loop(source, DigitalLoop(params, f_samp), duration)
    theta_signal = float(np.mean(wrap_phase(res.theta_e[res.t >= 0.8 * duration], period)))
    return float(np.mean(tail)), theta_signal, bool(np.all(np.abs(tail) < 0.5)) and res.locked


def gap(run) -> float:
    return abs(run[1] - run[0])


@pytest.fixture(scope="module")
def gap_run():
    return averaging_gap()


class TestAveragingGap:
    def test_both_fidelities_lock(self, gap_run):
        assert gap_run[2]

    def test_nonzero_gap(self, gap_run):
        assert gap(gap_run) > 1e-3  # the ideal-LPF assumption is not exact

    def test_wider_lpf_grows_gap(self, gap_run):
        # the locked-phase discrepancy is rectified double-frequency
        # leakage, so widening the LPFs toward 2*omega0 makes it worse
        assert gap(averaging_gap(omega3_scale=3.0)) > gap(gap_run)

    def test_finer_sampling_shrinks_gap(self, gap_run):
        assert gap(averaging_gap(f_samp=12.8e6)) < gap(gap_run)

    def test_rerun_identical(self, gap_run):
        # both fidelities are deterministic: a fresh run repeats every float
        assert averaging_gap() == gap_run


def reference_rows(columns, text=None) -> str:
    """The per-value row formatter the block writer replaces."""
    rows = [[f"{v:.11e}" for v in row] for row in zip(*columns)]
    if text is not None:
        rows = [[*row, t] for row, t in zip(rows, text)]
    return "".join(",".join(row) + "\n" for row in rows)


def assert_same_csv(got: str, want: str) -> None:
    """Fail naming the first line that differs (a plain == on megabytes of
    text would have pytest diff all of it)."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} vs {len(w)} lines)")


def _ulp_neighbours(x):
    """x, its neighbours one ulp either side, and their negatives."""
    x = np.asarray(x, float)
    near = np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])
    return np.concatenate([near, -near])


class TestCsvExport(object):
    SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1.8e308,
                -1.8e308, 1.0 / 3.0, 123456789.0123, -7e-11]

    @pytest.mark.parametrize("rows", [1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_block_writer_matches_per_value_format(self, rows):
        rng = np.random.default_rng(rows)
        cycle = np.concatenate([self.SPECIALS, rng.normal(scale=1e3, size=20)])
        # the special values recur every 32 rows, in every block and column
        columns = [np.resize(np.roll(cycle, -j), rows) for j in range(7)]
        fh = io.StringIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue(), reference_rows(columns))
        # the decade carry, 7 columns of it: a few ulps below +-10^k, whose
        # 12 digits round up to 1.00000000000e(k), and the values either
        # side of the carry's tie 9.999999999995e(k-1)
        ks = np.arange(-290, 290)
        powers = np.array([float(f"1e{k}") for k in ks])
        below = (powers.view(np.int64) - rng.integers(1, 9, size=len(ks))).view(np.float64)
        ties = np.array([float(f"{9999999999995 + d}e{k - 13}")
                         for k, d in zip(ks, rng.integers(-3, 4, size=len(ks)))])
        carries = np.concatenate([below, -below, _ulp_neighbours(ties)])
        columns = list(np.resize(carries, (7, -(-len(carries) // 7))))
        fh = io.StringIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue(), reference_rows(columns))

    # Values the digit tables must get right or hand to "%": random bit
    # patterns (every sign, exponent and payload, nan and inf included),
    # decimals one half-unit past 12 digits (13 digits ending in 5, whose
    # nearest float sits within half an ulp of the tie), 13-15-digit
    # integers and half-integers (exact ties), the powers of ten
    # where floor(log10|x|) turns, and the edges of the fast path's range
    @staticmethod
    def _oracle_values(kind):
        rng = np.random.default_rng(15)
        if kind == "bit-patterns":
            return rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
        if kind == "near-ties":
            digits = rng.integers(10**11, 10**12, size=20_000)
            exps = rng.integers(-300, 296, size=20_000)
            return _ulp_neighbours([float(f"{10 * d + 5}e{k}") for d, k in zip(digits, exps)])
        if kind == "integers":      # exact ties among them, rounded half to even
            n = rng.integers(10**12, 10**15, size=50_000).astype(float)
            return np.concatenate([n, n + 0.5, -n])
        if kind == "powers-of-ten":
            return _ulp_neighbours([float(f"1e{k}") for k in range(-300, 301)])
        return _ulp_neighbours([1e-290, 1e290])

    @pytest.mark.parametrize("kind", ["bit-patterns", "near-ties", "integers",
                                      "powers-of-ten", "range-edges"])
    @pytest.mark.parametrize("ncols", [1, 7])
    def test_block_writer_matches_oracle(self, kind, ncols):
        values = self._oracle_values(kind)
        rows = -(-len(values) // ncols)
        values = np.resize(values, rows * ncols)    # every value, wrapping round
        columns = [values[j * rows:(j + 1) * rows] for j in range(ncols)]
        fh = io.StringIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue(), reference_rows(columns))

    @pytest.mark.parametrize("ncols", [1, 7])
    def test_text_column_across_a_block_boundary(self, ncols):
        rows = CSV_BLOCK + 3
        rng = np.random.default_rng(ncols)
        values = np.concatenate([self.SPECIALS, rng.normal(scale=1e-3, size=rows * ncols)])
        columns = [values[j * rows:(j + 1) * rows] for j in range(ncols)]
        text = [("eq", "cycle", "undecided", "1", "0", "")[i % 6] for i in range(rows)]
        fh = io.StringIO()
        write_csv_rows(fh, columns, text)
        assert_same_csv(fh.getvalue(), reference_rows(columns, text))

    def test_format(self, tmp_path, bpsk_reference_params):
        r = run_loop(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP), 1e-4)
        path = tmp_path / "ts.csv"
        export_csv(r, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF endings
        lines = raw.decode().splitlines()
        assert lines[0] == "t,theta_e,u_d,u_f,omega2,I2,Q2"
        fields = lines[2].split(",")
        assert len(fields) == 7
        assert all("e" in f for f in fields)  # 12-significant-digit floats
        assert len(lines) == len(r.t) + 1
