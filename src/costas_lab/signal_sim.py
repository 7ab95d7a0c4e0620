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

A run always records the loop-filter output uf, from which the NCO phase,
the phase error and the NCO frequency follow; the branch signals (u_d, I2,
Q2) are recorded only for callers that read them (``run_loop``'s
``signals``: the CSV export and the demodulation check).  Each recorded
signal is one float64 array of the run's n samples, allocated before the
loop, which stores sample k at index k.  The loop reads its input (the
mixer input, or the pre-envelope and its Hilbert image) through
memoryviews of float64 arrays, and the lock windows are computed in place
after it, from one lock-cell pass: a run peaks at about 34 B of traced
memory per sample, 58 B with the branch signals (see ``MAX_SAMPLES``).

The sample loop is kept once, as the source of ``_sample_loop``, and run
as a copy built from it per (variant tag, PD flavor, signals) on first
use (``_kernel_loop``): the run's fixed flags made constants and their
dead branches dropped, so each copy holds its variant's front end and
phase detector and no other.  The NCO range check runs on the phase
rebuilt after the loop, so a run that leaves the range runs on to its last
sample (or to a ``cos`` of an infinite phase) and then raises
``NumericBlowUp`` at the first sample that left it.

The sample-level phase detectors, ud of the branch signals: conventional
loops pass the LPF outputs I2, Q2, modified loops Re and Im of the rotated
envelope um.  Conventional BPSK multiplies them, conventional QPSK forms
the hard-limiter cross product I2*sign(Q2) - Q2*sign(I2); the modified
loops take v = um times the conjugate of the data decision (sign(Re), plus
j*sign(Im) for QPSK), and report Im(v) (COMPLEX_IMAG) or arg(v)
(COMPLEX_PHASE).  Tie-breaks are deterministic so tests are reproducible:
sign(0) := +1 everywhere, and arg() returns its principal value, with a
tie on the -P/2 edge of the PD period P folded to +P/2.  The
modified-loop phase PDs return 0.0 at um == 0, where the phase is
undefined, so a loop never stops on it.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LoopParams,
    LoopVariant,
    NumericFailure,
    PdFlavor,
    SimResult,
    bisect,
    check_real,
    count_cycle_slips,
    pd_period,
    rebuild,
    write_csv_rows,
)

TWO_PI = 2.0 * math.pi

# Largest run ``run_loop`` accepts.  Without the branch signals a run peaks
# at about 34 B of traced memory per sample (40 B for mod_qpsk with the
# ideal Hilbert, whose front end holds five float64 arrays at once), and
# with them at 58 B for every loop: the result's float64 arrays, 8 B each,
# beside one lock window and its bool masks.  So 4e6 samples stay under
# 0.25 GB, and their CSV (127 B per row) near 0.5 GB.  That is 1.25 s of
# signal at 3.2 MHz, 52 times the longest run the benchmark or the
# acceptance gate makes (76,800 samples).
MAX_SAMPLES = 4_000_000


class ConfigError(ValueError):
    """Invalid simulation configuration (sampling, delay alignment)."""


class NumericBlowUp(NumericFailure):
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
        if not self.f_carrier > 0:
            raise ConfigError(f"carrier frequency f_carrier must be > 0, got {self.f_carrier!r}")
        if not 0 < self.f_symbol < self.f_carrier:
            raise ConfigError(f"symbol rate f_symbol must be > 0 and below the carrier "
                              f"frequency {self.f_carrier!r}, got {self.f_symbol!r}")
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
    def for_params(cls, params: LoopParams, **given) -> "LockDetector":
        """The detector for ``params``: the fields in ``given``, and the
        defaults from omega_n for those it leaves out, validated once.
        ConfigError when the gains underflow omega_n to 0.0 and
        ``freq_window`` is left out: its default would divide by it."""
        if "freq_window" not in given:
            if params.omega_n == 0.0:
                raise ConfigError("loop gains underflow omega_n to 0.0: no default "
                                  "detector freq_window")
            given["freq_window"] = 4.0 * TWO_PI / params.omega_n
        if "freq_tol" not in given:
            given["freq_tol"] = 0.01 * params.omega_n
        return cls(**given)


def _check_corner(omega: float, T: float) -> None:
    """Both maps need 0 < omega*T/2 < pi/2: a corner at or above Nyquist
    has no prewarped image."""
    if not 0.0 < omega * T / 2.0 < math.pi / 2.0:
        raise ConfigError(f"corner {omega:g} rad/s cannot be prewarped at T={T:g}")


def _discrete_lpf(omega3: float, T: float) -> tuple[float, float]:
    """(b, a1) of 1/(1 + s/omega3) under the bilinear map
    s = c(1 - z^-1)/(1 + z^-1), c = 2/T, with the corner prewarped to
    wp = c*tan(omega3*T/2) so the response at omega3 is exactly 1/(1 + j);
    a0 is normalized to 1, and the two numerator taps are the one float b."""
    _check_corner(omega3, T)
    c = 2.0 / T
    # 1/(1/omega3), the root of 1 + s/omega3, may differ from omega3 in the last bit
    wp = c * math.tan((1.0 / (1.0 / omega3)) * T / 2.0)
    g = (1.0 / wp) * c
    a0 = 1.0 + g
    return 1.0 / a0, (1.0 - g) / a0


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
    signals: bool = False,
) -> SimResult:
    """Simulate the full loop sample by sample and measure acquisition.

    The result always holds ``t``, ``theta_e``, ``uf``, ``omega2`` and the
    acquisition verdicts.  The branch signals ``ud``, ``i2`` and ``q2``
    are recorded only with ``signals=True`` (for :func:`export_csv` and
    :func:`demod_ber`), and are None otherwise; the verdicts do not
    depend on it.  Raises :class:`NumericBlowUp` at the first sample
    whose NCO phase leaves (-1e12, 1e12), found after the sample loop
    has run on.

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
    theta1, theta2, uf_arr, ud_arr, i2_arr, q2_arr = _run_kernel(source, loop, n, T, signals)
    period = pd_period(variant)

    # the windows are computed in place, each float operation the one the
    # whole-array formula makes, in its order; every whole-run temporary is
    # dropped before the result's t and omega2 are allocated
    t_lock, final_freq_error = None, math.nan
    # a window longer than the run, however long, leaves the run unlocked
    w = max(10, round(min(detector.freq_window / T, n)))
    ok = None
    if n > w + 1:
        avg_freq = theta2[w:] - theta2[:-w]         # window [k, k+w]
        avg_freq /= w * T
        final_freq_error = float(params.omega1 - avg_freq[-1])
        np.subtract(params.omega1, avg_freq, out=avg_freq)
        ok = np.abs(avg_freq, out=avg_freq) < detector.freq_tol
        del avg_freq
    # theta_e replaces the rebuilt NCO phase in its buffer
    theta_e = np.subtract(theta1, theta2, out=theta2)
    del theta1, theta2
    # one lock-cell pass: the cells count the slips, then become the
    # wrapped distance |theta_e - period*cell| (wrap_phase) and its running
    # sum, behind a leading 0.0
    csum = np.empty(n + 1)
    csum[0] = 0.0
    cycle_slips = count_cycle_slips(theta_e, period, out=csum[1:])
    if ok is not None:
        dist = csum[1:]
        dist *= period
        np.subtract(theta_e, dist, out=dist)
        np.abs(dist, out=dist)
        np.cumsum(csum, out=csum)
        avg_dist = csum[w:n] - csum[:n - w]         # window [k, k+w)
        avg_dist /= w
        ok &= avg_dist < detector.phase_tol
        del dist, avg_dist
    del csum
    t = np.arange(n, dtype=float)
    t *= T
    if ok is not None and ok[-1]:
        failed = np.flatnonzero(~ok)
        t_lock = float(t[int(failed[-1]) + 1 if len(failed) else 0])
    omega2 = np.multiply(params.k0, uf_arr)
    omega2 += params.omega_free
    return SimResult(t=t, theta_e=theta_e, ud=ud_arr, uf=uf_arr, omega2=omega2, i2=i2_arr,
                     q2=q2_arr, locked=t_lock is not None, t_lock=t_lock,
                     cycle_slips=cycle_slips, final_freq_error=final_freq_error,
                     f_samp=loop.f_samp)


def _run_kernel(source, loop, n, T, signals):
    """The sample loop shared by all four variants: (theta1, theta2, uf,
    ud, i2, q2), the last three None unless ``signals``.

    Only the front end and the PD differ between variants, and both are
    chosen before the loop: the conventional loops mix one real input
    against the NCO and low-pass both branches, the modified loops rotate
    the pre-envelope u_re + j*u_im by the NCO phase.  For the modified
    loops the recorded ``i2``/``q2`` are Re and Im of the rotated envelope.
    The loop is :func:`_sample_loop` as built for the run's (variant tag,
    PD flavor, signals) by :func:`_kernel_loop`.  It stores ``uf`` alone on
    every sample, at its index in an array of ``n`` (the branch signals
    likewise under ``signals``), and returns how many samples it stored;
    the NCO phase is rebuilt from those afterwards, and the range check
    runs on that rebuild, so a run that blows up runs to sample ``n`` (or
    to a ``cos`` of an infinite phase) before it raises
    :class:`NumericBlowUp`.
    """
    params = loop.params
    variant = source.variant
    is_qpsk = variant.is_qpsk
    conventional = variant.is_conventional
    if conventional and params.omega3 is None:
        raise ConfigError("conventional loops need the LPF corner omega3")

    # the delayed Hilbert image is the pre-envelope n4 samples earlier, so
    # the grid starts at k = -n4 and the pre-envelope is computed once.
    # Each front-end array is built in place and freed once used: the loop
    # reads its inputs through memoryviews of float64 arrays, each item the
    # Python float a list of them would hold
    n4 = 0
    if not conventional and loop.hilbert_mode == "delay":
        n4 = loop.hilbert_delay_samples(source.f_carrier)
    k = np.arange(-n4, n)
    th1 = params.omega1 * k
    th1 *= T
    th1 += source.theta1_0
    # samples before 0 carry the first symbol
    sym_idx = np.maximum(k, 0, out=k) / (loop.f_samp / source.f_symbol)
    del k
    sym_idx = np.floor(sym_idx, out=sym_idx).astype(np.int64)
    n_sym = int(sym_idx[-1]) + 1
    m1 = source.symbols(n_sym, 0)[sym_idx]
    m2 = source.symbols(n_sym, 1)[sym_idx] if is_qpsk else None
    del sym_idx
    b = la1 = None
    if conventional:
        b, la1 = _discrete_lpf(params.omega3, T)
        # m1*sin(th1) (BPSK) or m1*cos(th1) + m2*sin(th1) (QPSK)
        u = _product(np.cos if is_qpsk else np.sin, th1, m1)
        del m1
        if is_qpsk:
            u += _product(np.sin, th1, m2)
        # VCO branch outputs carry amplitude 2 (exact scaling)
        u *= 2.0
        front = zip(range(n), memoryview(u))
    else:
        # the pre-envelope (m1 + j*m2)*exp(j*th1), m2 = 0 for BPSK: u_re =
        # m1*cos(th1) - m2*sin(th1); the ideal image u_im = m1*sin(th1) +
        # m2*cos(th1), the delayed one u_re n4 samples earlier
        u = _product(np.cos, th1, m1)
        u_im = None if n4 else _product(np.sin, th1, m1)
        del m1
        if is_qpsk:
            u -= _product(np.sin, th1, m2)
            if u_im is not None:
                u_im += _product(np.cos, th1, m2)
        front = zip(range(n), memoryview(u[n4:]), memoryview(u[:n] if n4 else u_im))
        del u_im
    del u, m2

    fb0, fb1 = _discrete_pi(params.tau1, params.tau2, T)
    wfree_T = params.omega_free * T
    k0_T = params.k0 * T
    # one float64 array of n samples per recorded signal, allocated once;
    # the loop stores sample k at index k through a memoryview, whose item
    # store costs less than an ndarray's or than array.append (which parses
    # a format string on every call)
    uf_arr = np.empty(n)
    branches = (np.empty(n), np.empty(n), np.empty(n)) if signals else (None, None, None)
    views = [None if a is None else memoryview(a) for a in (uf_arr, *branches)]
    sample_loop = _kernel_loop(variant.tag, variant.pd_flavor, signals)
    stored, stopped = sample_loop(front, b, la1, fb0, fb1, wfree_T, k0_T, pd_period(variant),
                                  *views)
    # stopped: a ValueError out of the loop after ``stored`` samples, a cos
    # or sin of an infinite phase that the range check below finds; any
    # other ValueError is re-raised after it.  The input arrays go first,
    # before the phase rebuild
    del front
    # theta2[k] is the phase before sample k's update and theta2[k + 1] the
    # phase after it: the loop's own additions in its own order (float64
    # cumsum is a sequential accumulate), so every value is the one th2 held
    theta2 = np.empty(stored + 1)
    theta2[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(k0_T, uf_arr[:stored], out=theta2[1:])
        theta2[1:] += wfree_T
        np.cumsum(theta2, out=theta2)
    # the NCO range check: the first sample whose updated phase leaves
    # (-1e12, 1e12), NaN counted outside (theta2[0] is 0.0)
    if not (-1e12 < theta2.min() and theta2.max() < 1e12):
        inside = (theta2[1:] > -1e12) & (theta2[1:] < 1e12)
        raise NumericBlowUp(int(np.argmin(inside)))
    if stopped is not None:
        raise stopped
    return (th1[n4:], theta2[:n], uf_arr, *branches)


def _product(trig, th1, m):
    """``m * trig(th1)`` with one temporary."""
    out = trig(th1)
    out *= m
    return out


def _sample_loop(conventional, is_qpsk, phase_pd, signals, front, b, la1, fb0, fb1, wfree_T,
                 k0_T, period, uf_a, ud_a, i2_a, q2_a):
    """The per-sample loop of every variant, as source: runs take the copies
    :func:`_kernel_loop` builds from it.  ``front`` yields (k, u), the
    conventional loops' mixer input, or (k, u_re, u_im), the modified
    loops' pre-envelope, for sample k; its ``uf`` (and, under ``signals``,
    ``ud``, ``i2`` and ``q2``) is stored at index k of its buffer.  The
    phase PDs fold a tie to the +P/2 edge of ``period``, the PD period P.
    Returns (samples stored, None), or (samples stored, the ValueError) for
    a ValueError that stops the run."""
    sin, cos = math.sin, math.cos
    if phase_pd:
        atan2 = math.atan2
        half_period = period / 2.0
    th2 = 0.0
    zi = zq = zf = 0.0
    k = -1
    try:
        for sample in front:
            if conventional:
                k, u = sample
            else:
                k, ur, ui = sample
            # _Specialize makes the unpacking the for target: a tuple no
            # name holds is reused by zip
            del sample
            c = cos(th2)
            s = sin(th2)
            if conventional:
                if is_qpsk:
                    i1 = u * c
                    q1 = u * s
                else:
                    i1 = u * s
                    q1 = u * c
                # the LPF's two numerator taps are the one float b
                g = b * i1
                i2 = g + zi
                zi = g - la1 * i2
                g = b * q1
                q2 = g + zq
                zq = g - la1 * q2
                if is_qpsk:
                    # hard-limiter cross product i2*sign(q2) - q2*sign(i2)
                    ud = (i2 if q2 >= 0.0 else -i2) - (q2 if i2 >= 0.0 else -q2)
                else:
                    # multiplier: the product of the two LPF outputs
                    ud = i2 * q2
            else:
                # um = (u_re + j*u_im) * exp(-j*th2), and v = um times the
                # conjugate of the data decision sign(i2) (+ j*sign(q2))
                i2 = ur * c + ui * s
                q2 = ui * c - ur * s
                di = 1.0 if i2 >= 0.0 else -1.0
                if is_qpsk:
                    dq = 1.0 if q2 >= 0.0 else -1.0
                    vi = q2 * di - i2 * dq
                else:
                    vi = q2 * di
                if phase_pd:
                    if is_qpsk:
                        vr = i2 * di + q2 * dq
                    else:
                        vr = i2 * di
                    if vr == 0.0 and vi == 0.0:
                        ud = 0.0
                    else:
                        ud = atan2(vi, vr)
                        if ud <= -half_period:
                            ud += period
                else:
                    ud = vi
            uf = fb0 * ud + zf
            zf = fb1 * ud + uf
            uf_a[k] = uf
            if signals:
                ud_a[k] = ud
                i2_a[k] = i2
                q2_a[k] = q2
            th2 += wfree_T + k0_T * uf
    except ValueError as exc:
        # sample k did not reach its stores
        return k, exc
    return k + 1, None


class _Specialize(ast.NodeTransformer):
    """Makes each flag read its constant, cuts each ``if`` on a constant to
    the branch it takes, and moves a loop body's leading ``target = item;
    del item`` into the ``for`` target."""

    def __init__(self, flags):
        self.flags = flags

    def visit_Name(self, node):
        if node.id in self.flags:
            return ast.copy_location(ast.Constant(self.flags[node.id]), node)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
        return node

    def visit_For(self, node):
        self.generic_visit(node)
        match node:
            case ast.For(target=ast.Name(id=item),
                         body=[ast.Assign(targets=[target], value=ast.Name(id=read)),
                               ast.Delete(targets=[ast.Name(id=gone)]), *rest]) \
                    if item == read == gone:
                node.target, node.body = target, rest
        return node


@functools.cache
def _kernel_loop(tag, flavor, signals):
    """:func:`_sample_loop` for one (variant tag, PD flavor, signals): its
    flags made constants and their dead branches dropped, so the copy holds
    the one front end and the one PD its variant runs.  Rebuilt from its
    source by :func:`core.rebuild`, so a traceback points into
    ``_sample_loop``.  The flags leave its arguments.  Built on first use:
    importing the module parses nothing."""
    variant = LoopVariant(tag, flavor)
    flags = {"conventional": variant.is_conventional, "is_qpsk": variant.is_qpsk,
             "phase_pd": flavor is PdFlavor.COMPLEX_PHASE, "signals": signals}

    def transform(func):
        func = _Specialize(flags).visit(func)
        func.args.args = [a for a in func.args.args if a.arg not in flags]
        return func

    return rebuild(_sample_loop, transform)


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
    high end, down to ``resolution`` Hz or to adjacent floats.  Raises
    SearchError before any trial when an end of the bracket is not a
    finite number or its loop is refused by :meth:`LoopParams.with_offset`,
    lo >= hi, or ``resolution`` is not a finite number > 0, and after the
    end trials when the bracket premise does not hold.
    ``budget`` is the per-trial simulation time in seconds, either a
    constant or a callable of the trial offset (Hz) so callers can budget
    a multiple of the predicted pull-in time.  Deterministic given the
    PRBS seed.
    """
    lo, hi = search
    try:
        for value, name in ((lo, "search low end"), (hi, "search high end"),
                            (resolution, "resolution")):
            check_real(value, name)
    except ValueError as exc:
        raise SearchError(str(exc)) from None
    for value, name in ((lo, "low"), (hi, "high")):
        try:                        # the loop the end's trial would run
            loop.params.with_offset(TWO_PI * value)
        except ValueError as exc:
            raise SearchError(f"search {name} end {value:g} Hz: {exc}") from None
    if not lo < hi:
        raise SearchError("search bracket must satisfy lo < hi")
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


def _check_signals(result: SimResult) -> None:
    if result.i2 is None:
        raise ValueError("run recorded without signals=True: it has no branch signals")


def demod_ber(result: SimResult, source: ModulatedSource) -> float:
    """Symbol error fraction of the demodulated stream after lock.

    Slices the recorded I (and Q) branch at symbol centers, searches a
    small integer symbol alignment, folds out the variant's lock-point
    ambiguity (sign flip for BPSK, four rotations for QPSK), and returns
    the best-case error fraction.  ``result`` must come from
    ``run_loop(..., signals=True)`` (ValueError otherwise).
    """
    _check_signals(result)
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
    """Time-series export, RFC 4180 with LF endings, 12 significant digits.

    ``result`` must come from ``run_loop(..., signals=True)`` (ValueError
    otherwise)."""
    _check_signals(result)
    cols = (result.t, result.theta_e, result.ud, result.uf,
            result.omega2, result.i2, result.q2)
    with open(path, "w", newline="") as fh:
        fh.write("t,theta_e,u_d,u_f,omega2,I2,Q2\n")
        write_csv_rows(fh, cols)
