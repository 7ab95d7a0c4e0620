import ast
import dis
import inspect
import io
import itertools
import json
import math
import sys
import tracemalloc
from array import array
from dataclasses import replace
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
    PdFlavor,
    classic_rhs,
    design,
    lock_time,
    pd_period,
    wrap_phase,
)
from costas_lab import cli, signal_sim
from costas_lab.core import CSV_BLOCK, write_csv_rows
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
# every (variant, flavor) pair; a default flavor's id is its variant's name
PAIRS = [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK, MODIFIED_BPSK,
         LoopVariant(MODIFIED_BPSK.tag, PdFlavor.COMPLEX_IMAG), MODIFIED_QPSK,
         LoopVariant(MODIFIED_QPSK.tag, PdFlavor.COMPLEX_IMAG)]


def _sign(x):
    """sign(x) with sign(0) := +1."""
    return 1.0 if x >= 0.0 else -1.0


def textbook_pd(variant):
    """The sample-level PD ud(i2, q2) of ``variant``, written from its
    definition: the reference the sample loop's PD must match bit for bit.
    Conventional loops pass the LPF outputs, modified loops Re and Im of
    the rotated envelope um."""
    if variant.is_conventional:
        if variant.is_qpsk:
            return lambda i2, q2: i2 * _sign(q2) - q2 * _sign(i2)
        return lambda i2, q2: i2 * q2
    period = pd_period(variant)

    def modified(re, im):
        # v = um times the conjugate of the data decision sign(re) (+ j*sign(im))
        if variant.is_qpsk:
            vr, vi = re * _sign(re) + im * _sign(im), im * _sign(re) - re * _sign(im)
        else:
            vr, vi = re * _sign(re), im * _sign(re)
        if variant.pd_flavor is PdFlavor.COMPLEX_IMAG:
            return vi
        if vr == 0.0 and vi == 0.0:
            return 0.0      # um == 0 has no phase
        # arg(v), its principal value with the -P/2 edge folded to +P/2
        ph = math.atan2(vi, vr)
        return ph + period if ph <= -period / 2 else ph

    return modified


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

    @pytest.mark.parametrize("f_carrier,f_symbol,named", [
        (400e3, 0.0, "f_symbol"), (400e3, -100e3, "f_symbol"), (400e3, math.nan, "f_symbol"),
        (-400e3, 100e3, "f_carrier"), (0.0, 100e3, "f_carrier"), (math.nan, 100e3, "f_carrier"),
    ])
    def test_non_positive_rates_rejected(self, f_carrier, f_symbol, named):
        with pytest.raises(ConfigError, match=named):
            ModulatedSource(CONVENTIONAL_BPSK, f_carrier=f_carrier, f_symbol=f_symbol)

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
        r = run_loop(src, DigitalLoop(p, F_SAMP), 4e-4, signals=True)
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
                                      hilbert_mode="ideal"), 4e-4, signals=True)
        # locked: |um| ~ sqrt(2) for unit-amplitude quadrature data
        mag = np.hypot(r.i2[-500:], r.q2[-500:])
        assert np.median(mag) == pytest.approx(math.sqrt(2), rel=0.05)


class TestKernelPd:
    @pytest.mark.parametrize("variant", PAIRS, ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}")
    def test_ud_is_the_table_pd_of_recorded_branches(self, variant):
        # the table: textbook_pd, one PD per (variant, flavor)
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        loop = DigitalLoop(p.with_offset(TWO_PI * 50e3), F_SAMP)
        r = run_loop(ModulatedSource(variant, 400e3, 100e3), loop, 3e-4, signals=True)
        pd = textbook_pd(variant)
        expect = np.array([pd(i, q) for i, q in zip(r.i2.tolist(), r.q2.tolist())])
        assert expect.tobytes() == r.ud.tobytes()


class TestRecording:
    @pytest.mark.parametrize("variant", [CONVENTIONAL_BPSK, CONVENTIONAL_QPSK,
                                         MODIFIED_BPSK, MODIFIED_QPSK],
                             ids=lambda v: v.tag.value)
    def test_arrays_are_contiguous_float64_of_length_n(self, variant):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        r = run_loop(ModulatedSource(variant, 400e3, 100e3), DigitalLoop(p, F_SAMP), 1e-4,
                     signals=True)
        for name in ("t", "theta_e", "ud", "uf", "omega2", "i2", "q2"):
            a = getattr(r, name)
            assert a.dtype == np.float64 and a.flags.c_contiguous, name
            assert a.shape == (320,), name

    def test_traced_bytes_per_sample(self, bpsk_reference_params):
        # 34.1 B per sample measured on this run without the branch signals
        # and 58.0 B with them, set in lock detection by four float64
        # arrays (theta_e, uf, the lock-cell running sum and one window
        # average) and two bool masks; the loop reading Python float lists
        # with whole-array windows peaked at 81.3 B, recording into lists
        # at 264 B.  Pinned at 36 B: about 5% of margin
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        # built outside the trace: the first build of a loop parses its source
        signal_sim._kernel_loop(CONVENTIONAL_BPSK.tag, CONVENTIONAL_BPSK.pd_flavor, False)
        tracemalloc.start()
        try:
            r = run_loop(bpsk_source(), loop, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 36

    def test_recorded_arrays_allocated_once_at_n(self, modified_reference_params):
        # 57.5 B per sample measured on this 16,000-sample run with the
        # branch signals, each recorded array allocated once at n samples:
        # the three branch arrays (24 B) beside the 33.4 B of a run without
        # them.  Input lists and whole-array windows peaked at 104.6 B,
        # buffers grown by append at 113.0 B (a reallocation holds the old
        # and the new block).  Pinned at 60 B: about 5% of margin
        p = modified_reference_params.with_offset(TWO_PI * 100e3)
        loop = DigitalLoop(p, 12.8e6, hilbert_mode="delay")
        # built outside the trace: the first build of a loop parses its source
        signal_sim._kernel_loop(MODIFIED_QPSK.tag, MODIFIED_QPSK.pd_flavor, True)
        tracemalloc.start()
        try:
            r = run_loop(ModulatedSource(MODIFIED_QPSK, 400e3, 100e3), loop, 1.25e-3,
                         signals=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(r.t) == 16_000
        assert peak / len(r.t) < 60
        for name in ("uf", "ud", "i2", "q2"):
            a = getattr(r, name)
            # a float64 array that owns exactly n samples: no view into a
            # larger buffer
            assert a.dtype == np.float64 and a.flags.owndata, name
            assert a.shape == (16_000,) and a.nbytes == 8 * 16_000, name

    def test_traced_bytes_per_sample_mod_qpsk_delay_hilbert(self, modified_reference_params):
        # the delayed front end: 33.4 B per sample measured without the
        # branch signals (57.5 B with them), with one pre-envelope grid,
        # each front-end array built in place and freed once used, and the
        # loop reading the grid through memoryviews; 96.0 B with it read as
        # two Python float lists, 168 B with the front-end arrays kept
        # alive through the loop.  Pinned at 35 B: about 5% of margin
        p = modified_reference_params.with_offset(TWO_PI * 100e3)
        loop = DigitalLoop(p, 12.8e6, hilbert_mode="delay")
        # built outside the trace, as above
        signal_sim._kernel_loop(MODIFIED_QPSK.tag, MODIFIED_QPSK.pd_flavor, False)
        tracemalloc.start()
        try:
            r = run_loop(ModulatedSource(MODIFIED_QPSK, 400e3, 100e3), loop, 1.25e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 35


def parent_kernel(source, loop, n, T):
    """The sample loop as it was when it stored the NCO phase and all four
    branch signals on every sample: the reference the recording options
    must reproduce bit for bit.  Returns (theta1, theta2, ud, uf, i2, q2,
    blow_at), the arrays cut at a blow-up sample."""
    params = loop.params
    variant = source.variant
    is_qpsk = variant.is_qpsk
    conventional = variant.is_conventional
    pd = textbook_pd(variant)
    n4 = 0
    if not conventional and loop.hilbert_mode == "delay":
        n4 = loop.hilbert_delay_samples(source.f_carrier)
    k = np.arange(-n4, n)
    th1 = source.theta1_0 + params.omega1 * k * T
    sym_idx = np.floor(np.maximum(k, 0) / (loop.f_samp / source.f_symbol)).astype(np.int64)
    n_sym = int(sym_idx[-1]) + 1
    m1 = source.symbols(n_sym, 0)[sym_idx]
    m2 = source.symbols(n_sym, 1)[sym_idx] if is_qpsk else None
    if conventional:
        # the parent's two numerator taps, the one float b
        lb0, la1 = signal_sim._discrete_lpf(params.omega3, T)
        lb1 = lb0
        if is_qpsk:
            u1 = m1 * np.cos(th1) + m2 * np.sin(th1)
        else:
            u1 = m1 * np.sin(th1)
        u1 = (2.0 * u1).tolist()
    else:
        if is_qpsk:
            u = m1 * np.cos(th1) - m2 * np.sin(th1)
        else:
            u = m1 * np.cos(th1)
        if n4:
            u_re, u_im = u[n4:].tolist(), u[:n].tolist()
        else:
            u_re = u.tolist()
            if is_qpsk:
                u_im = (m1 * np.sin(th1) + m2 * np.cos(th1)).tolist()
            else:
                u_im = (m1 * np.sin(th1)).tolist()
    fb0, fb1 = signal_sim._discrete_pi(params.tau1, params.tau2, T)
    wfree_T = params.omega_free * T
    k0_T = params.k0 * T
    th2 = 0.0
    zi = zq = zf = 0.0
    theta2, ud_a, uf_a, i2_a, q2_a = (array("d", [0.0]) * n for _ in range(5))
    blow_at = None
    for k in range(n):
        theta2[k] = th2
        c = math.cos(th2)
        s = math.sin(th2)
        if conventional:
            u = u1[k]
            if is_qpsk:
                i1 = u * c
                q1 = u * s
            else:
                i1 = u * s
                q1 = u * c
            i2 = lb0 * i1 + zi
            zi = lb1 * i1 - la1 * i2
            q2 = lb0 * q1 + zq
            zq = lb1 * q1 - la1 * q2
        else:
            ur = u_re[k]
            ui = u_im[k]
            i2 = ur * c + ui * s
            q2 = ui * c - ur * s
        ud = pd(i2, q2)
        uf = fb0 * ud + zf
        zf = fb1 * ud + uf
        ud_a[k] = ud
        uf_a[k] = uf
        i2_a[k] = i2
        q2_a[k] = q2
        th2 += wfree_T + k0_T * uf
        if not (-1e12 < th2 < 1e12):
            blow_at = k
            n = k + 1
            break
    recorded = (np.frombuffer(buf, dtype=np.float64, count=n)
                for buf in (theta2, ud_a, uf_a, i2_a, q2_a))
    return (th1[n4:], *recorded, blow_at)


def parent_run_loop(source, loop, duration):
    """``run_loop`` with :func:`parent_kernel` in place of the kernel: the
    verdicts the parent kernel's arrays give."""
    def kernel(source, loop, n, T, signals):
        theta1, theta2, ud, uf, i2, q2, blow_at = parent_kernel(source, loop, n, T)
        if blow_at is not None:
            raise NumericBlowUp(blow_at)
        return theta1, theta2, uf, ud, i2, q2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal_sim, "_run_kernel", kernel)
        return run_loop(source, loop, duration, signals=True)


def parent_lock_detection(theta1, theta2, uf, params, detector, period, T):
    """``run_loop``'s result arrays and verdicts as the whole-array
    formulas wrote them before the windows were computed in place: (t,
    theta_e, omega2, locked, t_lock, cycle_slips, final_freq_error)."""
    n = len(theta2)
    t = np.arange(n) * T
    theta_e = theta1 - theta2
    omega2 = params.omega_free + params.k0 * uf
    cycle_slips = int(np.abs(np.diff(np.floor(theta_e / period + 0.5))).sum())
    t_lock, final_freq_error = None, math.nan
    w = max(10, round(min(detector.freq_window / T, n)))
    if n > w + 1:
        avg_freq = (theta2[w:] - theta2[:-w]) / (w * T)
        ok_freq = np.abs(params.omega1 - avg_freq) < detector.freq_tol
        dist = np.abs(theta_e - period * np.floor(theta_e / period + 0.5))
        csum = np.concatenate([[0.0], np.cumsum(dist)])
        avg_dist = (csum[w:] - csum[:-w]) / w
        ok = ok_freq & (avg_dist < detector.phase_tol)[: len(ok_freq)]
        if ok[-1]:
            failed = np.flatnonzero(~ok)
            t_lock = float(t[int(failed[-1]) + 1 if len(failed) else 0])
        final_freq_error = float(params.omega1 - avg_freq[-1])
    return t, theta_e, omega2, t_lock is not None, t_lock, cycle_slips, final_freq_error


def result_bytes(r, fields=("t", "theta_e", "ud", "uf", "omega2", "i2", "q2")):
    """Every field of a SimResult as bytes (None where not recorded)."""
    out = {name: None if getattr(r, name) is None else getattr(r, name).tobytes()
           for name in fields}
    out.update(locked=r.locked, t_lock=r.t_lock, cycle_slips=r.cycle_slips,
               final_freq_error=np.float64(r.final_freq_error).tobytes(), f_samp=r.f_samp)
    return out


BRANCHES = ("ud", "i2", "q2")


def pair_id(v):
    return v.tag.value if v == LoopVariant(v.tag) else f"{v.tag.value}-{v.pd_flavor.value}"

# every (variant, flavor) pair, the modified loops under both Hilbert modes
RECORDING_CASES = [(v, mode, f_samp) for v in PAIRS
                   for mode, f_samp in ((("delay", F_SAMP),) if v.is_conventional
                                        else (("delay", F_SAMP), ("ideal", 12.8e6)))]


class TestRecordingEquivalence:
    """The kernel stores uf alone and rebuilds the NCO phase from it, and
    stores the branch signals on request; every array and verdict is the
    parent kernel's, with and without them."""

    @pytest.mark.parametrize("variant,mode,f_samp", RECORDING_CASES,
                             ids=[f"{v.tag.value}-{v.pd_flavor.value}-{m}"
                                  for v, m, _ in RECORDING_CASES])
    def test_matches_parent_kernel(self, variant, mode, f_samp):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        sources = [ModulatedSource(variant, 400e3, 100e3),
                   ModulatedSource(variant, 400e3, 100e3, data_mode="ones", theta1_0=2.1)]
        for offset in (35e3, 200e3):
            loop = DigitalLoop(p.with_offset(TWO_PI * offset), f_samp, hilbert_mode=mode)
            for src in sources:
                n, T = int(round(1.2e-3 * f_samp)), 1.0 / f_samp
                theta1, theta2, ud, uf, i2, q2, blow_at = parent_kernel(src, loop, n, T)
                assert blow_at is None
                for signals in (False, True):
                    got = signal_sim._run_kernel(src, loop, n, T, signals)
                    assert [a.tobytes() for a in got[:3]] == [
                        a.tobytes() for a in (theta1, theta2, uf)]
                    if signals:
                        assert [a.tobytes() for a in got[3:]] == [
                            a.tobytes() for a in (ud, i2, q2)]
                    else:
                        assert got[3:] == (None, None, None)
                want = result_bytes(parent_run_loop(src, loop, 1.2e-3))
                full = result_bytes(run_loop(src, loop, 1.2e-3, signals=True))
                bare = result_bytes(run_loop(src, loop, 1.2e-3))
                assert full == want
                assert bare == {**want, **dict.fromkeys(BRANCHES)}

    @pytest.mark.parametrize("variant", PAIRS, ids=pair_id)
    @pytest.mark.parametrize("signals", [False, True])
    def test_blow_up_at_the_parent_sample(self, variant, signals):
        # the phase leaves the range and the loop runs on to n: the range
        # check after it names the sample the parent stopped at
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        p = LoopParams(p.omega1, p.omega_free, 1e30, p.kd, p.tau1, p.tau2, p.omega3)
        src, loop = ModulatedSource(variant, 400e3, 100e3), DigitalLoop(p, F_SAMP)
        blow_at = parent_kernel(src, loop, 320, 1.0 / F_SAMP)[-1]
        assert blow_at is not None
        with pytest.raises(NumericBlowUp) as err:
            run_loop(src, loop, 1e-4, signals=signals)
        assert err.value.sample_index == blow_at

    # the phase PDs are bounded by pi/2: no gain overflows their loops' phase
    @pytest.mark.parametrize("variant", [v for v in PAIRS
                                         if v.pd_flavor is not PdFlavor.COMPLEX_PHASE],
                             ids=pair_id)
    @pytest.mark.parametrize("signals", [False, True])
    def test_phase_overflow_at_the_parent_sample(self, variant, signals, monkeypatch):
        # k0 = 1.7e308 and a large amplitude overflow the phase to inf (bpsk
        # in the update that first leaves the range, the others later), and
        # the next sample's cos(inf) raises ValueError; the default
        # detector's omega_n would overflow too, so one is given
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        p = LoopParams(p.omega1, p.omega_free, 1.7e308, p.kd, p.tau1, p.tau2, p.omega3)
        src, loop = ModulatedSource(variant, 400e3, 100e3, m=1e6), DigitalLoop(p, F_SAMP)
        *_, parent_uf, _, _, blow_at = parent_kernel(src, loop, 320, 1.0 / F_SAMP)
        assert blow_at is not None
        stopped = []
        built = signal_sim._kernel_loop

        def spy(*key):
            def run(*args):
                ran, exc = built(*key)(*args)
                # the samples stored before the ValueError: the parent's up
                # to its blow-up sample
                uf = np.asarray(args[8])[:ran]
                stopped.append((ran, exc, uf[: blow_at + 1].tobytes()))
                return ran, exc
            return run

        monkeypatch.setattr(signal_sim, "_kernel_loop", spy)
        with pytest.raises(NumericBlowUp) as err:
            run_loop(src, loop, 1e-4, LockDetector(1e-5, 1.0), signals=signals)
        assert err.value.sample_index == blow_at
        [(ran, exc, prefix)] = stopped
        assert type(exc) is ValueError and str(exc) == "math domain error"
        assert ran > blow_at and prefix == parent_uf.tobytes()
        if variant == CONVENTIONAL_BPSK:
            assert ran == blow_at + 1

    def test_value_error_without_blow_up_propagates(self, monkeypatch):
        # a ValueError with every phase in range is no blow-up: on every
        # (variant, flavor) pair, with and without the branch signals, the
        # one the loop raised is re-raised, after the 99 samples it stored
        raised = ValueError("cos failed mid-run")
        calls = []
        cos = math.cos

        def failing_cos(x):
            calls.append(x)
            if len(calls) == 100:
                raise raised
            return cos(x)

        stored = []
        built = signal_sim._kernel_loop

        def spy(*key):
            def run(*args):
                stored.append(built(*key)(*args))
                return stored[-1]
            return run

        monkeypatch.setattr(signal_sim, "_kernel_loop", spy)
        for variant, signals in itertools.product(PAIRS, (False, True)):
            p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
            src, loop = ModulatedSource(variant, 400e3, 100e3), DigitalLoop(p, F_SAMP)
            calls.clear()
            stored.clear()
            with monkeypatch.context() as mp:
                mp.setattr(math, "cos", failing_cos)
                with pytest.raises(ValueError) as err:
                    run_loop(src, loop, 1e-4, signals=signals)
            assert err.value is raised, (variant, signals)
            assert len(calls) == 100 and stored == [(99, raised)], (variant, signals)

    def test_cumsum_is_a_sequential_running_sum(self):
        # the kernel's NCO phase is np.cumsum of its increments: that holds
        # bit for bit only if float64 cumsum adds one value at a time, in
        # order, as the sample loop does; a host whose numpy reassociates
        # the sum fails here
        rng = np.random.default_rng(24)
        n = 1 << 20
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-15, 16, size=n)
        x[::7] = 2.5e6 * 3.125e-7 + 1.2e6 * 3.125e-7 * rng.standard_normal(len(x[::7]))
        expect = np.array(list(itertools.accumulate(x.tolist())))
        assert np.cumsum(x).tobytes() == expect.tobytes()
        out = x.copy()
        np.cumsum(out, out=out)
        assert out.tobytes() == expect.tobytes()
        # ode's RK4 grid: 0.0 and then a constant h, summed in place, is the
        # running t = t + h over the probe's 110 s and README's 1.0 and 2.1 s
        for h in (2e-2, 1e-2, 1e-3, 0.3, 0.15):
            for t_end in (110.0, 1.0, 2.1):
                grid = np.full(math.ceil(t_end / h) + 1, h)
                grid[0] = 0.0
                np.cumsum(grid, out=grid)
                t, expect = 0.0, [0.0]
                for _ in range(len(grid) - 1):
                    t = t + h
                    expect.append(t)
                assert grid.tobytes() == np.array(expect).tobytes(), (h, t_end)

    def test_callers_record_only_what_they_read(self, tmp_path, capsys, monkeypatch,
                                                bpsk_reference_params):
        # the pull-in search and sweep read the verdicts alone; simulate
        # writes the branch signals to its CSV
        calls = []
        real = signal_sim.run_loop
        bind = inspect.signature(real).bind

        def spy(*args, **kwargs):
            bound = bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments["signals"])
            return real(*args, **kwargs)

        monkeypatch.setattr(signal_sim, "run_loop", spy)
        monkeypatch.setattr(cli, "run_loop", spy)
        measure_pull_in_range(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP),
                              (60e3, 188e3), budget=1e-3, resolution=32e3)
        assert calls and not any(calls)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "fidelity": "signal", "variant": "bpsk",
                                   "f0": 400e3, "f_symbol": 100e3, "f_samp": 3.2e6,
                                   "duration": 2e-4}))
        calls.clear()
        assert cli.main(["sweep", "--config", str(cfg), "--offsets", "50e3,70e3",
                         "-o", str(tmp_path / "sweep")]) == 0
        assert calls == [False, False]
        calls.clear()
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "delta_f0": 50e3}))
        assert cli.main(["simulate", "--config", str(cfg), "-o", str(tmp_path / "sim")]) == 0
        assert calls == [True]

    @pytest.mark.parametrize("consumer", ["demod_ber", "export_csv"])
    def test_consumers_refuse_a_run_without_signals(self, tmp_path, consumer,
                                                    bpsk_reference_params):
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(bpsk_reference_params, F_SAMP), 1e-3)
        assert r.locked and r.ud is None and r.i2 is None and r.q2 is None
        path = tmp_path / "ts.csv"
        with pytest.raises(ValueError, match=r"run recorded without signals=True"):
            if consumer == "demod_ber":
                demod_ber(r, src)
            else:
                export_csv(r, str(path))
        assert not path.exists()


class TestLockDetectionInPlace:
    """``run_loop`` computes its lock windows in place from one lock-cell
    pass; its arrays and verdicts are the whole-array formulas', bit for
    bit, on the kernel's own output."""

    @pytest.mark.parametrize("variant,mode,f_samp", RECORDING_CASES,
                             ids=[f"{v.tag.value}-{v.pd_flavor.value}-{m}"
                                  for v, m, _ in RECORDING_CASES])
    def test_matches_whole_array_formulas(self, variant, mode, f_samp):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        period, T = pd_period(variant), 1.0 / f_samp
        seen = set()
        for offset, duration in ((35e3, 1.2e-3), (200e3, 1.2e-3), (900e3, 4e-4)):
            params = p.with_offset(TWO_PI * offset)
            loop = DigitalLoop(params, f_samp, hilbert_mode=mode)
            src = ModulatedSource(variant, 400e3, 100e3)
            n = int(round(duration * f_samp))
            theta1, theta2, uf, *_ = signal_sim._run_kernel(src, loop, n, T, False)
            # the default detector, a phase tolerance few windows pass, and
            # a window longer than the run
            for detector in (LockDetector.for_params(params),
                             LockDetector.for_params(params, phase_tol=0.02),
                             LockDetector(2 * duration, 1.0)):
                want = parent_lock_detection(theta1, theta2, uf, params, detector, period, T)
                r = run_loop(src, loop, duration, detector)
                got = (r.t, r.theta_e, r.omega2, r.locked, r.t_lock, r.cycle_slips,
                       r.final_freq_error)
                assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]
                assert got[3:6] == want[3:6]
                assert np.float64(got[6]).tobytes() == np.float64(want[6]).tobytes()
                seen.add((r.locked, r.t_lock == 0.0, r.cycle_slips > 0,
                          math.isnan(r.final_freq_error)))
        # locked after a failing window, unlocked and slipping, and no window
        assert {(True, False, False, False), (False, False, True, False)} <= seen
        assert any(nan for *_, nan in seen)


def _buffers(n, signals):
    """The recording arrays of an n-sample run, NaN until stored, and the
    memoryviews a built loop stores through (None for a signal it does not
    record)."""
    bufs = [np.full(n, np.nan) for _ in range(4 if signals else 1)]
    return bufs, [memoryview(b) for b in bufs] + [None] * (4 - len(bufs))


def _front(variant, n):
    """An n-sample front end: (k, u) for the conventional loops, (k, u_re,
    u_im) for the modified loops."""
    if variant.is_conventional:
        return zip(range(n), [1.0, -0.5, 0.25, 0.0][:n])
    return zip(range(n), [1.0, 0.0, -0.3, 0.0][:n], [-0.5, -1.0, 0.2, 0.0][:n])


class TestKernelBuild:
    """``signal_sim._kernel_loop`` builds one sample loop per (variant tag,
    PD flavor, signals) from ``_sample_loop``: the flags made constants and
    their dead branches dropped, so the loop holds one front end and one
    PD."""

    @pytest.mark.parametrize("signals", [False, True])
    @pytest.mark.parametrize("key", [(v.tag, v.pd_flavor) for v in PAIRS],
                             ids=lambda k: f"{k[0].value}-{k[1].value}")
    def test_flags_gone_and_pd_not_called(self, key, signals):
        variant = LoopVariant(*key)
        code = signal_sim._kernel_loop(*key, signals).__code__
        assert not {"conventional", "is_qpsk", "phase_pd", "signals"} & set(code.co_varnames)
        # the branch buffers are read (stored through) only under signals
        loaded = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_FAST"}
        branches = {"ud_a", "i2_a", "q2_a"}
        assert "uf_a" in loaded and (branches & loaded) == (branches if signals else set())
        assert ("i1" in loaded) is variant.is_conventional
        assert ("atan2" in loaded) is (variant.pd_flavor is PdFlavor.COMPLEX_PHASE)
        bufs, views = _buffers(4, signals)
        ran = signal_sim._kernel_loop(*key, signals)(_front(variant, 4), 0.5, -0.25, 0.5, -0.25,
                                                     0.1, 0.01, pd_period(variant), *views)
        assert ran == (4, None) and not np.isnan(bufs[0]).any()
        if signals:
            uf, ud, i2, q2 = (b.tolist() for b in bufs)
            pd = textbook_pd(variant)
            assert [x.hex() for x in ud] == [pd(i, q).hex() for i, q in zip(i2, q2)]

    @pytest.mark.parametrize("signals", [False, True])
    @pytest.mark.parametrize("variant", PAIRS, ids=pair_id)
    def test_input_unpacked_in_the_for_target(self, variant, signals):
        # the loop unpacks each (k, u) or (k, u_re, u_im) as it takes it: no
        # name holds the item tuple, and no statement of the body unpacks it
        code = signal_sim._kernel_loop(variant.tag, variant.pd_flavor, signals).__code__
        ops = [i.opname for i in dis.get_instructions(code)]
        at = ops.index("FOR_ITER")
        assert ops[at + 1] == "UNPACK_SEQUENCE" and ops.count("UNPACK_SEQUENCE") == 1
        assert "sample" not in code.co_varnames

    @pytest.mark.parametrize("body", ["a = x\n    del y", "a = y\n    del y", "a = x\n    f(x)",
                                      "del x\n    a = x"])
    def test_for_target_left_unless_the_pair_leads(self, body):
        # only a leading ``target = item; del item`` moves into the target
        source = f"for x in z:\n    {body}\n    g()\n"
        tree = signal_sim._Specialize({}).visit(ast.parse(source))
        assert ast.unparse(tree) == ast.unparse(ast.parse(source))

    def test_leading_pair_moved_into_the_for_target(self):
        tree = ast.parse("for x in z:\n    a, b = x\n    del x\n    g(a)\n")
        assert ast.unparse(signal_sim._Specialize({}).visit(tree)) == "for a, b in z:\n    g(a)"

    @pytest.mark.parametrize("signals", [False, True])
    @pytest.mark.parametrize("variant", PAIRS, ids=pair_id)
    def test_loop_calls_only_sin_cos_and_atan2(self, variant, signals):
        # the PD is written into the loop: its only calls are the NCO's cos
        # and sin, and atan2 in the phase PDs (run on a tie, a zero envelope
        # and a general sample)
        loop = signal_sim._kernel_loop(variant.tag, variant.pd_flavor, signals)
        _, views = _buffers(4, signals)
        args = (_front(variant, 4), 0.5, -0.25, 0.5, -0.25, 0.0, 0.0, pd_period(variant), *views)
        called = []

        def profile(frame, event, arg):
            if event == "c_call":
                called.append(arg)
            elif event == "call" and frame.f_code is not loop.__code__:
                called.append(frame.f_code)

        sys.setprofile(profile)
        try:
            ran = loop(*args)
        finally:
            sys.setprofile(None)
        assert ran == (4, None)
        want = {math.sin, math.cos}
        if variant.pd_flavor is PdFlavor.COMPLEX_PHASE:
            want.add(math.atan2)
        assert set(called[:-1]) == want and called[-1] is sys.setprofile
        assert len(called) == 2 * 4 + (3 if math.atan2 in want else 0) + 1


class TestDemod:
    def test_bpsk_zero_errors(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 50e3)
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1.5e-3, signals=True)
        assert demod_ber(r, src) == 0.0

    def test_qpsk_zero_errors_under_rotation(self, qpsk_reference_params):
        src = ModulatedSource(CONVENTIONAL_QPSK, 400e3, 100e3)
        p = qpsk_reference_params.with_offset(TWO_PI * 40e3)
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1.5e-3, signals=True)
        assert r.locked
        assert demod_ber(r, src) == 0.0

    def test_modified_qpsk_zero_errors(self, modified_reference_params):
        src = ModulatedSource(MODIFIED_QPSK, 400e3, 100e3)
        p = modified_reference_params.with_offset(TWO_PI * 30e3)
        r = run_loop(src, DigitalLoop(p, 12.8e6, hilbert_mode="ideal"), 1.2e-3, signals=True)
        assert demod_ber(r, src) == 0.0

    def test_unlocked_rejected(self, bpsk_reference_params):
        p = bpsk_reference_params.with_offset(TWO_PI * 180e3)
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1e-3, signals=True)
        assert not r.locked
        with pytest.raises(NotLockedError):
            demod_ber(r, src)

    def test_too_few_post_lock_symbols_rejected(self, bpsk_reference_params):
        # the lock instant moved to 7 symbols before the end leaves 6 whole
        # symbols after it
        p = bpsk_reference_params.with_offset(TWO_PI * 50e3)
        src = bpsk_source()
        r = run_loop(src, DigitalLoop(p, F_SAMP), 1.5e-3, signals=True)
        late = replace(r, t_lock=float(r.t[-1]) - 7 / src.f_symbol)
        assert late.locked
        with pytest.raises(NotLockedError, match="not enough post-lock symbols"):
            demod_ber(late, src)


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

    @pytest.mark.parametrize("search", [(60e3, math.inf), (-math.inf, 188e3), (True, 188e3)])
    def test_bracket_ends_checked_before_any_trial(self, bpsk_reference_params, monkeypatch,
                                                   search):
        # an infinite end used to reach the kernel (NumericBlowUp at sample
        # 0), and True searched from 1 Hz
        def no_trial(*args):
            raise AssertionError("run_loop called")

        monkeypatch.setattr(signal_sim, "run_loop", no_trial)
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        with pytest.raises(SearchError, match=r"^search (low|high) end must be"):
            measure_pull_in_range(bpsk_source(), loop, search, budget=1e-3)

    @pytest.mark.parametrize("search, end", [((60e3, 1e308), "high"), ((-1e308, 60e3), "low")])
    def test_end_out_of_rad_range_refused_before_any_trial(self, bpsk_reference_params,
                                                           monkeypatch, search, end):
        # a finite end whose rad/s offset overflows: the low-end trial used
        # to run, and the high end then raised a plain ValueError
        calls = []
        monkeypatch.setattr(signal_sim, "run_loop", lambda *args: calls.append(args))
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        with pytest.raises(SearchError, match=rf"^search {end} end .* Hz: derived constant"):
            measure_pull_in_range(bpsk_source(), loop, search, budget=1e-3)
        assert calls == []

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

    def test_high_end_that_locks_rejected(self, bpsk_reference_params, monkeypatch):
        trials = []
        monkeypatch.setattr(signal_sim, "run_loop",
                            lambda *args: trials.append(args) or SimpleNamespace(locked=True))
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        with pytest.raises(SearchError, match=r"^loop must fail at the high end \(188000 Hz\)$"):
            measure_pull_in_range(bpsk_source(), loop, (60e3, 188e3), budget=1e-3)
        assert len(trials) == 2

    def test_trial_sequence(self, bpsk_reference_params, monkeypatch):
        # the ends, then one trial per halving of the 128 kHz bracket to 1 kHz
        trials = []
        monkeypatch.setattr(signal_sim, "run_loop", lambda source, loop, duration:
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

        def stub(source, loop, duration):
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


def open_loop_ud(variant, theta, data_mode):
    """Mean PD output of ``variant``'s designed loop opened by k0 = 1e-30,
    after the first fifth of a 1.2 ms run at carrier phase ``theta``.

    The NCO free-runs at the carrier, so theta_e stays at ``theta`` (to
    1e-9 rad, asserted) and the mean reads the PD's DC output there.
    Conventional loops run at 3.2 MHz, modified loops at 12.8 MHz with the
    ideal Hilbert."""
    params = replace(design(DesignSpec(400e3, 100e3, variant)), k0=1e-30)
    f_samp, mode = (3.2e6, "delay") if variant.is_conventional else (12.8e6, "ideal")
    source = ModulatedSource(variant, 400e3, 100e3, theta1_0=theta, data_mode=data_mode)
    r = run_loop(source, DigitalLoop(params, f_samp, mode), 1.2e-3, signals=True)
    assert np.max(np.abs(r.theta_e - theta)) < 1e-9
    return float(np.mean(r.ud[len(r.t) // 5:]))


class TestOpenLoopPd:
    """The sample loop's PD against the phase model's ``PdCharacteristic.phi``."""

    # phases at least 0.25 rad from a jump: pi/4 + k*pi/2 for the QPSK PDs,
    # pi/2 + k*pi for mod_bpsk's
    PHASES = {CONVENTIONAL_BPSK: [-1.2, -math.pi / 4, 0.0, math.pi / 8, 3 * math.pi / 8, 1.4],
              CONVENTIONAL_QPSK: [-0.5, -0.2, 0.0, math.pi / 16, math.pi / 8, 0.5, 1.1],
              MODIFIED_BPSK: [-1.2, -0.5, 0.3, 1.0],
              MODIFIED_QPSK: [-0.5, 0.2, 0.5, 1.2]}

    @pytest.mark.parametrize("variant", PHASES, ids=lambda v: v.tag.value)
    def test_constant_data_reads_phi(self, variant):
        pd = PdCharacteristic(variant)
        for theta in self.PHASES[variant]:
            assert open_loop_ud(variant, theta, "ones") == pytest.approx(pd.phi(theta), abs=1e-9)

    @pytest.mark.parametrize("variant", [MODIFIED_BPSK, MODIFIED_QPSK],
                             ids=["mod_bpsk", "mod_qpsk"])
    def test_modified_loops_read_phi_on_prbs_data(self, variant):
        # the data decision on the rotated envelope strips the data exactly
        pd = PdCharacteristic(variant)
        for theta in self.PHASES[variant]:
            assert open_loop_ud(variant, theta, "prbs") == pytest.approx(pd.phi(theta), abs=1e-9)

    @pytest.mark.parametrize("variant,phases", [
        (CONVENTIONAL_BPSK, [math.pi / 8, math.pi / 4, 3 * math.pi / 8]),
        (CONVENTIONAL_QPSK, [math.pi / 16, math.pi / 8])], ids=["bpsk", "qpsk"])
    def test_conventional_loops_lose_gain_on_prbs_data(self, variant, phases):
        # the arm LPFs (corner 200 kHz, 100 kHz symbols) smear each symbol
        # transition: the DC reads 0.915-0.935 of phi, a loss of Kd that
        # no model in the package carries
        pd = PdCharacteristic(variant)
        for theta in phases:
            assert 0.90 <= open_loop_ud(variant, theta, "prbs") / pd.phi(theta) <= 0.95

    def test_qpsk_jump_is_straddled(self):
        # at the jump theta_e = pi/4 the 2*omega ripple of the sum product
        # crosses the switching surface, so the mean is neither branch,
        # +-sqrt(2), but 0.108
        mean = open_loop_ud(CONVENTIONAL_QPSK, math.pi / 4, "ones")
        assert mean == pytest.approx(0.108, abs=5e-4)


class TestPullInTimeInSampling:
    """Criterion 4's modified-loop rows (its design, source and durations)
    run at 12.8, 25.6 and 51.2 MHz with the delay and the ideal Hilbert."""

    # tests/test_acceptance.py REFERENCE_PARAMS of both modified loops
    PARAMS = LoopParams(TWO_PI * 400e3, TWO_PI * 400e3, 1262000.0, 1.0, 20e-6, 4e-6)
    F_SAMPS = (12.8e6, 25.6e6, 51.2e6)
    # (variant, offset Hz, duration s, Hilbert) -> pull-in time in us at
    # F_SAMPS, rounded to 0.1 us
    ROWS = {
        (MODIFIED_QPSK, 200e3, 2.2e-3, "delay"): [293.8, 265.5, 241.2],
        (MODIFIED_QPSK, 200e3, 2.2e-3, "ideal"): [252.9, 241.6, 237.9],
        (MODIFIED_QPSK, 100e3, 2.2e-3, "delay"): [54.6, 55.6, 53.8],
        (MODIFIED_QPSK, 100e3, 2.2e-3, "ideal"): [51.8, 52.7, 53.4],
        (MODIFIED_BPSK, 200e3, 1.2e-3, "delay"): [52.4, 55.5, 55.7],
        (MODIFIED_BPSK, 200e3, 1.2e-3, "ideal"): [53.2, 54.2, 55.0],
    }

    @pytest.fixture(scope="class")
    def measured(self):
        out = {}
        for variant, f_off, duration, mode in self.ROWS:
            params = self.PARAMS.with_offset(TWO_PI * f_off)
            source = ModulatedSource(variant, 400e3, 100e3)
            runs = [run_loop(source, DigitalLoop(params, f_samp, mode), duration)
                    for f_samp in self.F_SAMPS]
            assert all(r.locked for r in runs)
            out[variant, f_off, duration, mode] = [r.pull_in_time * 1e6 for r in runs]
        return out

    def test_values_pinned(self, measured):
        assert {k: [round(t, 1) for t in row] for k, row in measured.items()} == self.ROWS

    def test_200khz_qpsk_row_falls_and_its_hilbert_gap_shrinks(self, measured):
        delay = measured[MODIFIED_QPSK, 200e3, 2.2e-3, "delay"]
        ideal = measured[MODIFIED_QPSK, 200e3, 2.2e-3, "ideal"]
        for row in (delay, ideal):
            assert row[0] > row[1] > row[2]
        gaps = [d - i for d, i in zip(delay, ideal)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_100khz_qpsk_row_stays_off_its_reference(self, measured):
        # criterion 4's failing row (80 +- 24 us) does not move with the
        # sampling rate or the Hilbert mode: its gap is the 16/pi^2
        # coefficient, not the discretization
        for mode in ("delay", "ideal"):
            assert all(51.0 <= t <= 56.0 for t in measured[MODIFIED_QPSK, 100e3, 2.2e-3, mode])


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
        fh = io.BytesIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue().decode(), reference_rows(columns))
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
        fh = io.BytesIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue().decode(), reference_rows(columns))

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
        fh = io.BytesIO()
        write_csv_rows(fh, columns)
        assert_same_csv(fh.getvalue().decode(), reference_rows(columns))

    def test_signed_zeros_and_their_neighbours(self):
        # a locked modified loop can hold theta_e, u_d and Q2 at exactly
        # 0.0 for half its rows: both zeros, every sign, beside the smallest
        # and largest values around them, in every column position
        near = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-290,
                np.nextafter(1e-290, 1.0), 1e-11, -0.5, 1.0, 9.999999999995e-1]
        rng = np.random.default_rng(0)
        values = rng.choice(near, size=(7, CSV_BLOCK + 5))
        values[:, :64] = rng.choice([0.0, -0.0], size=(7, 64))     # whole rows of zeros
        columns = list(values)
        fh = io.BytesIO()
        write_csv_rows(fh, columns)
        lines = fh.getvalue().decode().splitlines()
        assert lines == [",".join(format(v, ".11e") for v in row) for row in zip(*columns)]
        assert lines[0].count("0.00000000000e+00") == 7

    @pytest.mark.parametrize("ncols", [1, 7])
    def test_text_column_across_a_block_boundary(self, ncols):
        rows = CSV_BLOCK + 3
        rng = np.random.default_rng(ncols)
        values = np.concatenate([self.SPECIALS, rng.normal(scale=1e-3, size=rows * ncols)])
        columns = [values[j * rows:(j + 1) * rows] for j in range(ncols)]
        text = [("eq", "cycle", "undecided", "1", "0", "")[i % 6] for i in range(rows)]
        fh = io.BytesIO()
        write_csv_rows(fh, columns, text)
        assert_same_csv(fh.getvalue().decode(), reference_rows(columns, text))

    def test_format(self, tmp_path, bpsk_reference_params):
        r = run_loop(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP), 1e-4,
                     signals=True)
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
