import importlib.util
import inspect
import io
import itertools
import json
import math
import traceback
import tracemalloc
from array import array
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
    wrap_phase,
)
from costas_lab import cli, signal_sim
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
    @pytest.mark.parametrize(
        "variant",
        [LoopVariant(tag, flavor) for tag, flavor in SAMPLE_PD],
        ids=lambda v: f"{v.tag.value}-{v.pd_flavor.value}",
    )
    def test_ud_is_the_table_pd_of_recorded_branches(self, variant):
        p = design(DesignSpec(f0=400e3, f_symbol=100e3, variant=variant))
        loop = DigitalLoop(p.with_offset(TWO_PI * 50e3), F_SAMP)
        r = run_loop(ModulatedSource(variant, 400e3, 100e3), loop, 3e-4, signals=True)
        pd = SAMPLE_PD[(variant.tag, variant.pd_flavor)]
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
        # 81 B per sample measured on this run without the branch signals
        # and 105 B with them (the seven recorded float64 arrays are 56 B),
        # 113 B with the whole-run phase-distance array kept through lock
        # detection; recording into Python lists peaked at 264 B
        loop = DigitalLoop(bpsk_reference_params, F_SAMP)
        tracemalloc.start()
        try:
            r = run_loop(bpsk_source(), loop, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 150

    def test_traced_bytes_per_sample_mod_qpsk_delay_hilbert(self, modified_reference_params):
        # the delayed front end: 96 B per sample measured without the branch
        # signals (112 B with them) with one pre-envelope grid and the
        # front-end arrays freed before the sample loop, 168 B with them
        # kept alive through it
        p = modified_reference_params.with_offset(TWO_PI * 100e3)
        loop = DigitalLoop(p, 12.8e6, hilbert_mode="delay")
        tracemalloc.start()
        try:
            r = run_loop(ModulatedSource(MODIFIED_QPSK, 400e3, 100e3), loop, 1.25e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(r.t) < 150


def parent_kernel(source, loop, n, T):
    """The sample loop as it was when it stored the NCO phase and all four
    branch signals on every sample: the reference the recording options
    must reproduce bit for bit.  Returns (theta1, theta2, ud, uf, i2, q2,
    blow_at), the arrays cut at a blow-up sample."""
    params = loop.params
    variant = source.variant
    is_qpsk = variant.is_qpsk
    conventional = variant.is_conventional
    pd = SAMPLE_PD[(variant.tag, variant.pd_flavor)]
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


def result_bytes(r, fields=("t", "theta_e", "ud", "uf", "omega2", "i2", "q2")):
    """Every field of a SimResult as bytes (None where not recorded)."""
    out = {name: None if getattr(r, name) is None else getattr(r, name).tobytes()
           for name in fields}
    out.update(locked=r.locked, t_lock=r.t_lock, cycle_slips=r.cycle_slips,
               final_freq_error=np.float64(r.final_freq_error).tobytes(), f_samp=r.f_samp)
    return out


BRANCHES = ("ud", "i2", "q2")
# every (variant, flavor) pair; a default flavor's id is its variant's name
PAIRS = [LoopVariant(tag, flavor) for tag, flavor in SAMPLE_PD]


def pair_id(v):
    return v.tag.value if v == LoopVariant(v.tag) else f"{v.tag.value}-{v.pd_flavor.value}"

# every (variant, flavor) pair, the modified loops under both Hilbert modes
RECORDING_CASES = [(LoopVariant(tag, flavor), mode, f_samp)
                   for tag, flavor in SAMPLE_PD
                   for mode, f_samp in ((("delay", F_SAMP),) if tag.value in ("bpsk", "qpsk")
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
        blow_at = parent_kernel(src, loop, 320, 1.0 / F_SAMP)[-1]
        assert blow_at is not None
        stopped = []
        built = signal_sim._kernel_loop

        def spy(*key):
            def run(*args):
                try:
                    return built(*key)(*args)
                except ValueError as exc:
                    stopped.append((len(args[8]), str(exc)))
                    raise
            return run

        monkeypatch.setattr(signal_sim, "_kernel_loop", spy)
        with pytest.raises(NumericBlowUp) as err:
            run_loop(src, loop, 1e-4, LockDetector(1e-5, 1.0), signals=signals)
        assert err.value.sample_index == blow_at
        [(ran, message)] = stopped
        assert message == "math domain error" and ran > blow_at
        if variant == CONVENTIONAL_BPSK:
            assert ran == blow_at + 1

    def test_value_error_without_blow_up_propagates(self, bpsk_reference_params,
                                                    monkeypatch):
        # a ValueError with every phase in range is no blow-up: re-raised
        calls = []
        cos = math.cos

        def failing_cos(x):
            calls.append(x)
            if len(calls) == 100:
                raise ValueError("cos failed mid-run")
            return cos(x)

        monkeypatch.setattr(math, "cos", failing_cos)
        with pytest.raises(ValueError, match="^cos failed mid-run$"):
            run_loop(bpsk_source(), DigitalLoop(bpsk_reference_params, F_SAMP), 1e-4)
        assert len(calls) == 100

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


_PD_SOURCE = '''
import math
SCALE = 2.0
def pd(re, im):
    """Doc."""
    {line}
    return SCALE * math.atan2(im, re) + x
'''


def _pd_from(tmp_path, line):
    """``pd`` of :data:`_PD_SOURCE` with ``line``, loaded from a file (the
    build reads a PD's source)."""
    path = tmp_path / "pds.py"
    path.write_text(_PD_SOURCE.format(line=line))
    spec = importlib.util.spec_from_file_location("pds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pd


# a key whose loop passes (re, im) straight to the PD
KEY = (MODIFIED_BPSK.tag, PdFlavor.COMPLEX_IMAG)


def _run_built(loop, pd, front, signals=True):
    """A built loop run on ``front``, (u_re, u_im) pairs, with a frozen NCO
    (k0_T = wfree_T = 0): the recorded (uf, ud, i2, q2) as lists."""
    bufs = [array("d") for _ in range(4)]
    loop(pd, iter(front), None, None, 0.5, -0.25, 0.0, 0.0,
         *(bufs if signals else (bufs[0], None, None, None)))
    return [b.tolist() for b in bufs]


class TestKernelBuild:
    """``signal_sim._kernel_loop`` builds one sample loop per (variant tag,
    PD flavor, signals) from ``_sample_loop``: the flags made constants,
    their dead branches dropped, the PD's body written in."""

    @pytest.mark.parametrize("signals", [False, True])
    @pytest.mark.parametrize("key", list(SAMPLE_PD), ids=lambda k: f"{k[0].value}-{k[1].value}")
    def test_flags_gone_and_pd_not_called(self, key, signals):
        code = signal_sim._kernel_loop(*key, signals).__code__
        assert not {"conventional", "is_qpsk", "signals"} & set(code.co_varnames)
        assert ("put_ud" in code.co_varnames) is signals
        assert ("i1" in code.co_varnames) is (key[0].value in ("bpsk", "qpsk"))
        # a pd that cannot be called: the body is inlined
        pd = SAMPLE_PD[key]
        stand_in = SimpleNamespace(__globals__=pd.__globals__)
        front = [1.0, -0.5, 0.25] if key[0].value in ("bpsk", "qpsk") else [(1.0, -0.5)] * 3
        uf_a = array("d")
        ud_a, i2_a, q2_a = (array("d") for _ in range(3)) if signals else (None,) * 3
        signal_sim._kernel_loop(*key, signals)(stand_in, front, 0.5, -0.25, 0.5, -0.25,
                                               0.1, 0.01, uf_a, ud_a, i2_a, q2_a)
        assert len(uf_a) == 3
        if signals:
            assert ud_a.tolist() == [pd(i, q) for i, q in zip(i2_a, q2_a)]

    def test_module_names_read_from_the_pd_module(self, tmp_path, monkeypatch):
        # SCALE and math.atan2 bound from the PD's own module, once per call
        pd = _pd_from(tmp_path, "x = 0.5")
        monkeypatch.setitem(SAMPLE_PD, KEY, pd)
        loop = signal_sim._kernel_loop.__wrapped__(*KEY, True)
        assert {"SCALE", "atan2"} <= set(loop.__code__.co_varnames)
        front = [(1.0, -0.5), (-0.3, 0.2), (0.0, 0.0)]
        uf, ud, i2, q2 = _run_built(loop, pd, front)
        assert ud == [pd(i, q) for i, q in zip(i2, q2)]
        monkeypatch.setattr(pd.__globals__["math"], "atan2", lambda y, x: 0.0)
        assert _run_built(loop, pd, front)[1] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("line,message", [
        ("if re > 0.0: return 1.0", "a sample PD returns once, at its end"),
        ("x = c = 0.5", "a name the kernel uses"),
        ("re = x = 0.5", "a name the kernel uses"),
        ("x = SCALE; cos = 1.0", "a name the kernel uses"),
        ("x = atan2 = 0.5", "a name the kernel uses"),
    ])
    def test_unsafe_pd_refused(self, tmp_path, monkeypatch, line, message):
        # an early exit, a local the kernel uses (c, i2 for the parameter re,
        # cos) or one a module name is bound to (atan2): refused with the line
        monkeypatch.setitem(SAMPLE_PD, KEY, _pd_from(tmp_path, line))
        with pytest.raises(ValueError, match=f"^pd line 6: {message}$"):
            signal_sim._kernel_loop.__wrapped__(*KEY, False)

    def test_pd_error_traceback_at_the_pd_call(self, tmp_path, monkeypatch):
        pd = _pd_from(tmp_path, "x = 1.0 / (re - re)")
        monkeypatch.setitem(SAMPLE_PD, KEY, pd)
        loop = signal_sim._kernel_loop.__wrapped__(*KEY, False)
        with pytest.raises(ZeroDivisionError) as info:
            _run_built(loop, pd, [(1.0, 0.5)], signals=False)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        lines, first = inspect.getsourcelines(signal_sim._sample_loop)
        assert frame.filename == signal_sim.__file__
        assert first <= frame.lineno < first + len(lines)
        assert frame.line == "ud = pd(i2, q2)"


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
        fh = io.StringIO()
        write_csv_rows(fh, columns)
        lines = fh.getvalue().splitlines()
        assert lines == [",".join(format(v, ".11e") for v in row) for row in zip(*columns)]
        assert lines[0].count("0.00000000000e+00") == 7

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
