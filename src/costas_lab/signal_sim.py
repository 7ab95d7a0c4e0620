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
``signals``: the CSV export and the demodulation check).

The sample loop is kept once, as the source of ``_sample_loop``, and run
as a copy built from it per (variant tag, PD flavor, signals) on first
use (``_kernel_loop``): the run's fixed flags made constants and their
dead branches dropped, and the variant's ``detectors.SAMPLE_PD`` function
written into the loop in place of its call.  The NCO range check runs on
the phase rebuilt after the loop, so a run that leaves the range runs on
to its last sample (or to a ``cos`` of an infinite phase) and then raises
``NumericBlowUp`` at the first sample that left it.
"""

from __future__ import annotations

import ast
import functools
import math
from array import array
from dataclasses import dataclass
from types import ModuleType
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
    placed,
    rebuild,
    source_def,
    wrap_phase,
    write_csv_rows,
)
from .detectors import SAMPLE_PD

TWO_PI = 2.0 * math.pi

# Largest run ``run_loop`` accepts.  Without the branch signals a run peaks
# at about 81 B (conventional loops) to 96 B (modified loops; 104 B for
# mod_qpsk with the ideal Hilbert) of traced memory per sample, and with
# them at 105 B to 112 B (the recorded float64 arrays, 8 B each, the source
# waveform and the lock-detection windows).  So 4e6 samples stay under
# 0.5 GB, and their CSV (127 B per row) near 0.5 GB.  That is 1.25 s of
# signal at 3.2 MHz, 52 times the longest run the benchmark or the
# acceptance gate makes (76,800 samples).
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
    t = np.arange(n) * T
    theta_e = theta1 - theta2
    omega2 = params.omega_free + params.k0 * uf_arr
    period = pd_period(variant)
    cycle_slips = count_cycle_slips(theta_e, period)

    t_lock, final_freq_error = None, math.nan
    # a window longer than the run, however long, leaves the run unlocked
    w = max(10, round(min(detector.freq_window / T, n)))
    if n > w + 1:
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
    every sample; the NCO phase is rebuilt from it afterwards, and the
    range check runs on that rebuild, so a run that blows up runs to
    sample ``n`` (or to a ``cos`` of an infinite phase) before it raises
    :class:`NumericBlowUp`.
    """
    params = loop.params
    variant = source.variant
    is_qpsk = variant.is_qpsk
    conventional = variant.is_conventional
    if conventional and params.omega3 is None:
        raise ConfigError("conventional loops need the LPF corner omega3")

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
    b = la1 = None
    if conventional:
        b, la1 = _discrete_lpf(params.omega3, T)
        if is_qpsk:
            u1 = m1 * np.cos(th1) + m2 * np.sin(th1)
        else:
            u1 = m1 * np.sin(th1)
        # VCO branch outputs carry amplitude 2 (exact scaling)
        front = (2.0 * u1).tolist()
        del u1
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
        front = zip(u_re, u_im)
    del m1, m2

    fb0, fb1 = _discrete_pi(params.tau1, params.tau2, T)
    wfree_T = params.omega_free * T
    k0_T = params.k0 * T
    # typed buffers hold the samples as doubles, not as float objects, and
    # numpy reads them in place
    uf_a = array("d")
    ud_a, i2_a, q2_a = (array("d") for _ in range(3)) if signals else (None, None, None)
    sample_loop = _kernel_loop(variant.tag, variant.pd_flavor, signals)
    try:
        sample_loop(SAMPLE_PD[(variant.tag, variant.pd_flavor)], front, b, la1, fb0, fb1,
                    wfree_T, k0_T, uf_a, ud_a, i2_a, q2_a)
        stopped = None
    except ValueError as exc:
        # cos or sin of an infinite phase, which the range check below
        # finds; any other ValueError is re-raised after it
        stopped = exc
    uf_arr = np.frombuffer(uf_a, dtype=np.float64)
    # theta2[k] is the phase before sample k's update and theta2[k + 1] the
    # phase after it: the loop's own additions in its own order (float64
    # cumsum is a sequential accumulate), so every value is the one th2 held
    theta2 = np.empty(len(uf_arr) + 1)
    theta2[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(k0_T, uf_arr, out=theta2[1:])
        theta2[1:] += wfree_T
        np.cumsum(theta2, out=theta2)
    # the NCO range check: the first sample whose updated phase leaves
    # (-1e12, 1e12), NaN counted outside (theta2[0] is 0.0)
    if not (-1e12 < theta2.min() and theta2.max() < 1e12):
        inside = (theta2[1:] > -1e12) & (theta2[1:] < 1e12)
        raise NumericBlowUp(int(np.argmin(inside)))
    if stopped is not None:
        raise stopped
    branches = ((np.frombuffer(buf, dtype=np.float64) for buf in (ud_a, i2_a, q2_a))
                if signals else (None, None, None))
    return (th1[n4:], theta2[:n], uf_arr, *branches)


def _sample_loop(conventional, is_qpsk, signals, pd, front, b, la1, fb0, fb1, wfree_T, k0_T,
                 uf_a, ud_a, i2_a, q2_a):
    """The per-sample loop of every variant, as source: runs take the copies
    :func:`_kernel_loop` builds from it.  ``front`` holds the conventional
    loops' mixer input or the modified loops' (u_re, u_im) pairs; ``uf``
    (and, under ``signals``, ``ud``, ``i2`` and ``q2``) is appended to its
    buffer on every sample."""
    sin, cos = math.sin, math.cos
    put_uf = uf_a.append
    if signals:
        put_ud, put_i2, put_q2 = ud_a.append, i2_a.append, q2_a.append
    th2 = 0.0
    zi = zq = zf = 0.0
    for u in front:
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
        else:
            # um = (u_re + j*u_im) * exp(-j*th2)
            ur, ui = u
            del u       # a pair no name holds is reused by zip
            i2 = ur * c + ui * s
            q2 = ui * c - ur * s
        ud = pd(i2, q2)
        uf = fb0 * ud + zf
        zf = fb1 * ud + uf
        put_uf(uf)
        if signals:
            put_ud(ud)
            put_i2(i2)
            put_q2(q2)
        th2 += wfree_T + k0_T * uf


class _Specialize(ast.NodeTransformer):
    """Makes each flag read its constant, cuts each ``if`` on a constant to
    the branch it takes, and writes ``ud = pd(i2, q2)`` out as ``inline(at)``
    returns it."""

    def __init__(self, flags, inline):
        self.flags, self.inline = flags, inline

    def visit_Name(self, node):
        if node.id in self.flags:
            return ast.copy_location(ast.Constant(self.flags[node.id]), node)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
        return node

    def visit_Assign(self, node):
        match node:
            case ast.Assign(targets=[ast.Name(id="ud")], value=ast.Call(
                    func=ast.Name(id="pd"), args=[ast.Name(id="i2"), ast.Name(id="q2")],
                    keywords=[])):
                return self.inline(node)
        return self.generic_visit(node)


def _inlined_pd(pd, kernel_names, at):
    """``ud = pd(i2, q2)`` written out at ``at``'s position: ``pd``'s body
    with its parameters renamed ``i2`` and ``q2`` and its final ``return e``
    made ``ud = e``, after the statements that bind the module names it
    reads (``math.atan2`` as ``atan2``, ``HALF_PI``) from ``pd.__globals__``.
    ValueError, naming ``pd``'s line, for any other ``return`` or for a name
    the body binds that the kernel uses."""
    func = source_def(pd)
    *body, last = func.body[1:] if ast.get_docstring(func) is not None else func.body
    early = [n.lineno for n in ast.walk(ast.Module(body, [])) if isinstance(n, ast.Return)]
    if early or not (isinstance(last, ast.Return) and last.value):
        raise ValueError(f"{pd.__name__} line {min(early, default=last.lineno)}: "
                         "a sample PD returns once, at its end")
    params = dict(zip([a.arg for a in func.args.args], ("i2", "q2")))
    local = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Store)} | set(params)
    glob = pd.__globals__
    bound = {}       # name -> (its value's expression, the line that reads it)

    class Names(ast.NodeTransformer):
        def visit_Name(self, node):
            if node.id in params:
                node.id = params[node.id]
            elif node.id not in local and node.id in glob:
                bound.setdefault(node.id, (f"pd.__globals__[{node.id!r}]", node.lineno))
            return node

        def visit_Attribute(self, node):
            match node:
                case ast.Attribute(value=ast.Name(id=name), ctx=ast.Load()) if (
                        name not in local and isinstance(glob.get(name), ModuleType)):
                    bound.setdefault(node.attr, (f"pd.__globals__[{name!r}].{node.attr}",
                                                 node.lineno))
                    return ast.Name(node.attr, ast.Load())
            return self.generic_visit(node)

    body = [Names().visit(stmt) for stmt in [*body, last]]
    stored = [(n.id, n.lineno) for n in ast.walk(ast.Module(body, []))
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    reads = [(name, line) for name, (_, line) in bound.items()]
    clashes = [line for name, line in stored + reads if name in kernel_names]
    clashes += [line for name, line in stored if name in bound]
    if clashes:
        raise ValueError(f"{pd.__name__} line {min(clashes)}: a name the kernel uses")
    body[-1] = ast.Assign([ast.Name("ud", ast.Store())], body[-1].value)
    for node in ast.walk(ast.Module(body, [])):
        ast.copy_location(node, at)
    return placed("".join(f"{k} = {v}\n" for k, (v, _) in bound.items()), at), body


@functools.cache
def _kernel_loop(tag, flavor, signals):
    """:func:`_sample_loop` for one (variant tag, PD flavor, signals): its
    flags made constants and their dead branches dropped, and the call of
    ``SAMPLE_PD[(tag, flavor)]`` replaced by that function's body
    (:func:`_inlined_pd`).  Rebuilt from its source by
    :func:`core.rebuild`, so a traceback points into ``_sample_loop``, an
    inlined PD statement at its ``ud = pd(i2, q2)`` line.  The flags leave
    its arguments.  Built on first use: importing the module parses
    nothing."""
    variant = LoopVariant(tag, flavor)
    flags = {"conventional": variant.is_conventional, "is_qpsk": variant.is_qpsk,
             "signals": signals}

    def transform(func):
        kernel_names = ({n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
                        | {a.arg for a in func.args.args})
        prelude = []

        def inline(at):
            bind, body = _inlined_pd(SAMPLE_PD[(tag, flavor)], kernel_names, at)
            prelude.extend(bind)
            return body

        func = _Specialize(flags, inline).visit(func)
        left = [n.lineno for n in ast.walk(func) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "pd"]
        if left:
            raise ValueError(f"_sample_loop line {min(left)}: pd not in ud = pd(i2, q2)")
        func.args.args = [a for a in func.args.args if a.arg not in flags]
        func.body[1:1] = prelude
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
    finite number, lo >= hi, or ``resolution`` is not a finite number > 0,
    and after the end trials when the bracket premise does not hold.
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
