"""Sample-level discrete-time simulation of the four full loops.

Each run builds the whole receive chain the block diagrams describe:
PRBS modulator, the carrier (plus its quarter-cycle-delay Hilbert image
for the modified loops), mixers against the NCO, the LPFs and PI loop
filter (prewarped bilinear maps in closed form), the variant's phase
detector, and the NCO phase accumulator.  Everything is deterministic
given the config and seed.

Sign conventions: the NCO integrates omega2[n] = omega_free + K0*uf[n]
with one sample of causal delay (theta2[n+1] = theta2[n] + T*omega2[n]);
VCO branch outputs carry amplitude 2 so the unity-DC-gain LPFs deliver
I2 ~ m*cos(theta_e), Q2 ~ m*sin(theta_e).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LoopParams,
    LoopVariant,
    SimResult,
    bisect,
    check_real,
    count_cycle_slips,
    pd_period,
    wrap_phase,
    write_csv_rows,
)
from .detectors import SAMPLE_PD

TWO_PI = 2.0 * math.pi

# Largest run ``run_loop`` accepts.  A run peaks at about 105 B (conventional
# loops) to 112 B (modified loops) of traced memory per sample (the 56 B of
# recorded float64 arrays, the source waveform and the lock-detection
# windows), so 4e6 samples stay under 0.5 GB, and their CSV (127 B per row)
# near 0.5 GB.  That is 1.25 s of signal at 3.2 MHz, 52 times the longest
# run the benchmark or the acceptance gate makes (76,800 samples).
MAX_SAMPLES = 4_000_000


class ConfigError(ValueError):
    """Invalid simulation configuration (sampling, delay alignment)."""


class NumericBlowUp(RuntimeError):
    """Loop state left the finite range: at signal sample ``sample_index``,
    or where ``where`` says (an ODE run's step and time)."""

    def __init__(self, sample_index: Optional[int] = None, where: Optional[str] = None):
        super().__init__(f"non-finite loop state at {where or f'sample {sample_index}'}")
        self.sample_index = sample_index


class SearchError(ValueError):
    """Pull-in range search got an invalid bracket."""


class NotLockedError(ValueError):
    """Operation requires a locked run."""


def prbs_symbols(seed: int, n: int) -> np.ndarray:
    """+-1 symbol stream from a 32-bit LFSR (taps 32, 22, 2, 1)."""
    state = seed & 0xFFFFFFFF
    if state == 0:
        state = 0xACE1ACE1
    out = np.empty(n)
    for k in range(n):
        fb = ((state >> 31) ^ (state >> 21) ^ (state >> 1) ^ state) & 1
        state = ((state << 1) | fb) & 0xFFFFFFFF
        out[k] = 1.0 if state & 1 else -1.0
    return out


@dataclass(frozen=True)
class ModulatedSource:
    """Transmitter side: data streams riding on the carrier."""

    variant: LoopVariant
    f_carrier: float
    f_symbol: float
    m: float = 1.0
    prbs_seed: int = 0x1D872B41
    theta1_0: float = 0.0
    data_mode: str = "prbs"      # "prbs" | "ones" (constant +1 data)

    def __post_init__(self):
        if self.f_symbol >= self.f_carrier:
            raise ConfigError("symbol rate must be below the carrier frequency")
        try:
            check_real(self.m, "m")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.m <= 0:
            raise ConfigError("modulation amplitude must be > 0")
        if self.data_mode not in ("prbs", "ones"):
            raise ConfigError(f"unknown data_mode {self.data_mode!r}")

    def symbols(self, n: int, stream: int = 0) -> np.ndarray:
        if self.data_mode == "ones":
            return self.m * np.ones(n)
        seed = self.prbs_seed ^ (0x9E3779B9 * stream & 0xFFFFFFFF)
        return self.m * prbs_symbols(seed, n)


@dataclass(frozen=True)
class DigitalLoop:
    """Receiver side: loop constants plus the sampling grid."""

    params: LoopParams
    f_samp: float
    hilbert_mode: str = "delay"  # "delay" (n/4 samples) | "ideal" (exact quadrature)

    def __post_init__(self):
        if not 0 < self.f_samp < math.inf:
            raise ConfigError("sampling rate must be finite and > 0")
        if self.hilbert_mode not in ("delay", "ideal"):
            raise ConfigError(f"unknown hilbert_mode {self.hilbert_mode!r}")

    def hilbert_delay_samples(self, f_carrier: float) -> int:
        n = self.f_samp / f_carrier
        n_int = int(round(n))
        if abs(n - n_int) > 1e-9 or n_int % 4:
            raise ConfigError(
                "delay-based Hilbert needs f_samp an integer multiple of "
                f"4*f_carrier, got f_samp/f_carrier = {n:g}"
            )
        return n_int // 4


@dataclass(frozen=True)
class LockDetector:
    """Operational lock test: frequency settled and phase near a lock point."""

    freq_window: float           # s of averaged-frequency history
    freq_tol: float              # rad/s
    phase_tol: float = 0.1       # rad

    def __post_init__(self):
        for name in ("freq_window", "freq_tol", "phase_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"detector {name} must be > 0, got {value!r}")

    @classmethod
    def for_params(cls, params: LoopParams) -> "LockDetector":
        return cls(
            freq_window=4.0 * TWO_PI / params.omega_n,
            freq_tol=0.01 * params.omega_n,
        )


def _check_corner(omega: float, T: float) -> None:
    """Both maps need 0 < omega*T/2 < pi/2: a corner at or above Nyquist
    has no prewarped image."""
    if not 0.0 < omega * T / 2.0 < math.pi / 2.0:
        raise ConfigError(f"corner {omega:g} rad/s cannot be prewarped at T={T:g}")


def _discrete_lpf(omega3: float, T: float) -> tuple[float, float, float]:
    """(b0, b1, a1) of 1/(1 + s/omega3) under the bilinear map
    s = c(1 - z^-1)/(1 + z^-1), c = 2/T, with the corner prewarped to
    wp = c*tan(omega3*T/2) so the response at omega3 is exactly 1/(1 + j);
    a0 is normalized to 1."""
    _check_corner(omega3, T)
    c = 2.0 / T
    # 1/(1/omega3), the root of 1 + s/omega3, may differ from omega3 in the last bit
    wp = c * math.tan((1.0 / (1.0 / omega3)) * T / 2.0)
    g = (1.0 / wp) * c
    a0 = 1.0 + g
    return 1.0 / a0, 1.0 / a0, (1.0 - g) / a0


def _discrete_pi(tau1: float, tau2: float, T: float) -> tuple[float, float]:
    """(b0, b1) of the PI filter (1 + s*tau2)/(s*tau1) under the same map,
    its zero prewarped at 1/tau2; the integrator pole maps to z = 1
    exactly, so a == (1, -1)."""
    if not (tau1 > 0.0 and tau2 > 0.0):
        raise ConfigError(f"PI time constants must be > 0, got {tau1:g}, {tau2:g}")
    _check_corner(1.0 / tau2, T)
    c = 2.0 / T
    wp = c * math.tan((1.0 / tau2) * T / 2.0)
    g = (1.0 / wp) * c
    a0 = tau1 * c
    return (1.0 + g) / a0, (1.0 - g) / a0


def run_loop(
    source: ModulatedSource,
    loop: DigitalLoop,
    duration: float,
    detector: Optional[LockDetector] = None,
) -> SimResult:
    """Simulate the full loop sample by sample and measure acquisition.

    A full ``freq_window`` passes when its averaged NCO frequency is
    within ``freq_tol`` of the carrier and its averaged wrapped
    phase-error distance to the nearest lock point is inside
    ``phase_tol``.  The run is locked iff its last window passes, and
    the lock instant is the start of the window after the last failing
    one (0 if none fails).  Averaging the phase criterion over the same
    window keeps the measurement anchored to the end of the beat (a
    slipping window averages near a quarter of the detector period, far
    above any sensible tolerance) without charging the post-acquisition
    ring-down to the measured pull-in time.  Cycle slips are counted on
    the unwrapped phase error over the whole run.
    """
    params = loop.params
    detector = detector or LockDetector.for_params(params)
    if loop.f_samp <= 4.0 * source.f_carrier:
        raise ConfigError(
            f"sampling rate {loop.f_samp:g} must exceed 4x the carrier "
            f"{source.f_carrier:g} (sum-frequency content)"
        )
    samples = duration * loop.f_samp
    if not math.isfinite(samples):
        raise ConfigError("duration must be finite")
    if samples > MAX_SAMPLES:
        raise ConfigError(
            f"duration {duration:g} s at {loop.f_samp:g} Hz is {samples:.3g} samples, "
            f"above the cap of {MAX_SAMPLES}"
        )
    n = int(round(samples))
    if n < 16:
        raise ConfigError("duration too short for the sampling rate")
    T = 1.0 / loop.f_samp

    variant = source.variant
    theta1, theta2, ud_arr, uf_arr, i2_arr, q2_arr, blow_at = _run_kernel(source, loop, n, T)
    if blow_at is not None:
        raise NumericBlowUp(blow_at)

    t = np.arange(len(theta2)) * T
    theta_e = theta1[: len(theta2)] - theta2
    omega2 = params.omega_free + params.k0 * uf_arr
    period = pd_period(variant)
    cycle_slips = count_cycle_slips(theta_e, period)

    t_lock, final_freq_error = None, math.nan
    # a window longer than the run, however long, leaves the run unlocked
    w = max(10, round(min(detector.freq_window / T, len(theta2))))
    if len(theta2) > w + 1:
        avg_freq = (theta2[w:] - theta2[:-w]) / (w * T)   # window [k, k+w]
        ok_freq = np.abs(params.omega1 - avg_freq) < detector.freq_tol
        dist = np.abs(wrap_phase(theta_e, period))
        csum = np.concatenate([[0.0], np.cumsum(dist)])
        del dist
        avg_dist = (csum[w:] - csum[:-w]) / w             # window [k, k+w)
        ok_phase = avg_dist < detector.phase_tol

        ok = ok_freq & ok_phase[: len(ok_freq)]
        if ok[-1]:
            failed = np.flatnonzero(~ok)
            t_lock = float(t[int(failed[-1]) + 1 if len(failed) else 0])
        final_freq_error = float(params.omega1 - avg_freq[-1])
    return SimResult(t=t, theta_e=theta_e, ud=ud_arr, uf=uf_arr, omega2=omega2, i2=i2_arr,
                     q2=q2_arr, locked=t_lock is not None, t_lock=t_lock,
                     cycle_slips=cycle_slips, final_freq_error=final_freq_error,
                     f_samp=loop.f_samp)


def _run_kernel(source, loop, n, T):
    """The sample loop shared by all four variants.

    Only the front end and the PD differ between variants, and both are
    chosen before the loop: the conventional loops mix one real input
    against the NCO and low-pass both branches, the modified loops rotate
    the pre-envelope u_re + j*u_im by the NCO phase.  For the modified
    loops the recorded ``i2``/``q2`` are Re and Im of the rotated envelope.
    """
    params = loop.params
    variant = source.variant
    is_qpsk = variant.is_qpsk
    conventional = variant.is_conventional
    if conventional and params.omega3 is None:
        raise ConfigError("conventional loops need the LPF corner omega3")
    pd = SAMPLE_PD[(variant.tag, variant.pd_flavor)]

    # the delayed Hilbert image is the pre-envelope n4 samples earlier, so
    # the grid starts at k = -n4 and the pre-envelope is computed once
    n4 = 0
    if not conventional and loop.hilbert_mode == "delay":
        n4 = loop.hilbert_delay_samples(source.f_carrier)
    k = np.arange(-n4, n)
    th1 = source.theta1_0 + params.omega1 * k * T
    # samples before 0 carry the first symbol
    sym_idx = np.floor(np.maximum(k, 0) / (loop.f_samp / source.f_symbol)).astype(np.int64)
    n_sym = int(sym_idx[-1]) + 1
    m1 = source.symbols(n_sym, 0)[sym_idx]
    m2 = source.symbols(n_sym, 1)[sym_idx] if is_qpsk else None
    # the loop reads only the list inputs: free each front-end array once used
    del k, sym_idx
    if conventional:
        lb0, lb1, la1 = _discrete_lpf(params.omega3, T)
        if is_qpsk:
            u1 = m1 * np.cos(th1) + m2 * np.sin(th1)
        else:
            u1 = m1 * np.sin(th1)
        # VCO branch outputs carry amplitude 2 (exact scaling)
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
        del u
    del m1, m2

    fb0, fb1 = _discrete_pi(params.tau1, params.tau2, T)
    sin, cos = math.sin, math.cos
    wfree_T = params.omega_free * T
    k0_T = params.k0 * T
    th2 = 0.0
    zi = zq = zf = 0.0
    # typed buffers hold the samples as doubles, not as float objects, and
    # numpy reads them in place
    theta2, ud_a, uf_a, i2_a, q2_a = (array("d", [0.0]) * n for _ in range(5))
    blow_at = None
    for k in range(n):
        theta2[k] = th2
        c = cos(th2)
        s = sin(th2)
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
            # um = (u_re + j*u_im) * exp(-j*th2)
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


def measure_pull_in_range(
    source: ModulatedSource,
    loop: DigitalLoop,
    search: tuple[float, float],
    budget,
    detector: Optional[LockDetector] = None,
    resolution: float = 1e3,
) -> float:
    """Largest frequency offset (Hz) that still locks within the budget.

    :func:`core.bisect` on the detuning, from a locking low end to a failing
    high end, down to ``resolution`` Hz or to adjacent floats; raises
    SearchError when the bracket premise does not hold or ``resolution``
    is not a finite number > 0.  ``budget`` is the per-trial simulation
    time in seconds, either a constant or a callable of the trial offset
    (Hz) so callers can budget a multiple of the predicted pull-in time.
    Deterministic given the PRBS seed.
    """
    lo, hi = search
    if not lo < hi:
        raise SearchError("search bracket must satisfy lo < hi")
    try:
        check_real(resolution, "resolution")
    except ValueError as exc:
        raise SearchError(str(exc)) from None
    if not resolution > 0:
        raise SearchError(f"resolution must be > 0, got {resolution!r}")
    budget_fn = budget if callable(budget) else (lambda _f: budget)

    def locks(delta_f: float) -> bool:
        params = loop.params.with_offset(TWO_PI * delta_f)
        trial = DigitalLoop(params, loop.f_samp, loop.hilbert_mode)
        return run_loop(source, trial, budget_fn(delta_f), detector).locked

    if not locks(lo):
        raise SearchError(f"loop must lock at the low end ({lo:g} Hz)")
    if locks(hi):
        raise SearchError(f"loop must fail at the high end ({hi:g} Hz)")
    return bisect(locks, lo, hi, lambda lo, hi: hi - lo <= resolution)[0]


def demod_ber(result: SimResult, source: ModulatedSource) -> float:
    """Symbol error fraction of the demodulated stream after lock.

    Slices the recorded I (and Q) branch at symbol centers, searches a
    small integer symbol alignment, folds out the variant's lock-point
    ambiguity (sign flip for BPSK, four rotations for QPSK), and returns
    the best-case error fraction.
    """
    if not result.locked:
        raise NotLockedError("demodulation check requires a locked run")
    f_samp = result.f_samp
    sps = f_samp / source.f_symbol
    start = int(math.ceil((result.t_lock * f_samp) / sps)) + 1
    centers = []
    k = start
    while True:
        c = int(round((k + 0.5) * sps))
        if c >= len(result.i2):
            break
        centers.append((k, c))
        k += 1
    if len(centers) < 8:
        raise NotLockedError("not enough post-lock symbols to measure")

    n_sym = centers[-1][0] + 4
    streams = 2 if source.variant.is_qpsk else 1
    tx = np.sign([source.symbols(n_sym, s) for s in range(streams)])
    rx = np.array([[1.0 if branch[c] >= 0 else -1.0 for _, c in centers]
                   for branch in (result.i2, result.q2)[:streams]])
    syms = np.array([k for k, _ in centers])
    if streams == 2:
        # lock points every pi/2 rotate the complex envelope estimate
        rx_i, rx_q = rx
        candidates = [rx, np.array([rx_q, -rx_i]), -rx, np.array([-rx_q, rx_i])]
    else:
        candidates = [rx, -rx]
    best = 1.0
    for off in range(0, 3):
        idx = syms - off
        sel = idx >= 0
        if not np.any(sel):
            continue
        t = tx[:, idx[sel]]
        for cand in candidates:
            err = np.mean(np.any(cand[:, sel] != t, axis=0))
            best = min(best, float(err))
    return best


def export_csv(result: SimResult, path: str) -> None:
    """Time-series export, RFC 4180 with LF endings, 12 significant digits."""
    cols = (result.t, result.theta_e, result.ud, result.uf,
            result.omega2, result.i2, result.q2)
    with open(path, "w", newline="") as fh:
        fh.write("t,theta_e,u_d,u_f,omega2,I2,Q2\n")
        write_csv_rows(fh, cols)
