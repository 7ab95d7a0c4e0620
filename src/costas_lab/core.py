"""Shared domain types for the carrier-recovery lab.

All quantities are SI internally: angular frequencies in rad/s, times in
seconds, detector outputs in volts.  Hz enters and leaves only at the CLI
boundary.  Phase errors are kept unwrapped so cycle slips stay countable;
wrapping is a view operation (see :func:`wrap_phase`).
"""

from __future__ import annotations

import ast
import linecache
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

REL_TOL = 1e-9


class NumericFailure(RuntimeError):
    """A run that failed numerically, not on its inputs (the CLI's exit 3).
    Every other error the package raises on purpose is a ValueError."""


class VariantTag(Enum):
    CONVENTIONAL_BPSK = "bpsk"
    CONVENTIONAL_QPSK = "qpsk"
    MODIFIED_BPSK = "mod_bpsk"
    MODIFIED_QPSK = "mod_qpsk"


class PdFlavor(Enum):
    """Which phase-detector computation the loop uses."""

    MUL_MUL = "mul_mul"              # I2*Q2 multiplier cross-product
    SGN_CROSS = "sgn_cross"          # hard-limiter cross-product
    COMPLEX_PHASE = "complex_phase"  # arg() of the rotated complex envelope
    COMPLEX_IMAG = "complex_imag"    # Im() of the rotated complex envelope


# variant tag -> (default PD flavor, *the other flavors the variant takes)
_FLAVORS = {
    VariantTag.CONVENTIONAL_BPSK: (PdFlavor.MUL_MUL,),
    VariantTag.CONVENTIONAL_QPSK: (PdFlavor.SGN_CROSS,),
    VariantTag.MODIFIED_BPSK: (PdFlavor.COMPLEX_PHASE, PdFlavor.COMPLEX_IMAG),
    VariantTag.MODIFIED_QPSK: (PdFlavor.COMPLEX_PHASE, PdFlavor.COMPLEX_IMAG),
}


@dataclass(frozen=True)
class LoopVariant:
    """One of the four loop topologies plus its phase-detector flavor."""

    tag: VariantTag
    pd_flavor: PdFlavor = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.pd_flavor is None:
            object.__setattr__(self, "pd_flavor", _FLAVORS[self.tag][0])
        if self.pd_flavor not in _FLAVORS[self.tag]:
            raise ValueError(
                f"pd_flavor {self.pd_flavor.value} is not valid for {self.tag.value}"
            )

    @property
    def is_conventional(self) -> bool:
        return self.tag in (VariantTag.CONVENTIONAL_BPSK, VariantTag.CONVENTIONAL_QPSK)

    @property
    def is_modified(self) -> bool:
        return not self.is_conventional

    @property
    def is_qpsk(self) -> bool:
        return self.tag in (VariantTag.CONVENTIONAL_QPSK, VariantTag.MODIFIED_QPSK)

    @classmethod
    def from_name(cls, name: str, pd_flavor: Optional[str] = None) -> "LoopVariant":
        tag = VariantTag(name)
        flavor = PdFlavor(pd_flavor) if pd_flavor is not None else None
        return cls(tag, flavor)


CONVENTIONAL_BPSK = LoopVariant(VariantTag.CONVENTIONAL_BPSK)
CONVENTIONAL_QPSK = LoopVariant(VariantTag.CONVENTIONAL_QPSK)
MODIFIED_BPSK = LoopVariant(VariantTag.MODIFIED_BPSK)
MODIFIED_QPSK = LoopVariant(VariantTag.MODIFIED_QPSK)


def pd_period(variant: LoopVariant) -> float:
    """Period of the phase-detector characteristic in radians.

    BPSK-type detectors repeat every pi (the lock points sit at multiples
    of pi); QPSK-type detectors repeat every pi/2.  Total over all
    variants, no error path.
    """
    if variant.is_qpsk:
        return math.pi / 2.0
    return math.pi


def lock_cells(theta, period: float, out=None):
    """The lock cell of each phase in ``theta``: ``floor(theta/period +
    1/2)``, so cell k is the half-open interval [(k - 1/2)*period,
    (k + 1/2)*period) centered on the lock point k*period, and a tie at an
    odd multiple of period/2 falls in the cell above it.  Kept as a float:
    no overflow past 2**63 cells, and exact while |theta/period| < 2**53.
    Written into ``out``, a float64 array shaped like ``theta``, when given.
    The one lock-cell computation: :func:`wrap_phase` and
    :func:`count_cycle_slips` both take their cells from it."""
    cells = np.divide(np.asarray(theta, dtype=float), period, out=out)
    cells += 0.5
    return np.floor(cells, out=out)


def wrap_phase(theta, period: float = 2.0 * math.pi):
    """Distance-preserving wrap of ``theta`` into [-period/2, period/2):
    ``theta`` less the center of its lock cell (:func:`lock_cells`), so a
    tie at an odd multiple of period/2 wraps to -period/2."""
    wrapped = theta - period * lock_cells(theta, period)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def check_real(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a finite int or float (a bool is
    not a number here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


_GAIN_KEYS = ("omega1", "omega_free", "k0", "kd", "tau1", "tau2")
_DERIVED_KEYS = ("omega_c", "omega_n", "zeta", "delta_omega0")
# every key of a params object, in the order :meth:`LoopParams.to_dict` writes them
_PARAMS_KEYS = (*_GAIN_KEYS, "omega3", *_DERIVED_KEYS)


@dataclass(frozen=True)
class LoopParams:
    """All loop constants; the second-order normalization is derived.

    ``omega_n`` = sqrt(K0*Kd/tau1) and ``zeta`` = omega_n*tau2/2 are
    computed from the gains on access, so they cannot disagree with them.
    """

    omega1: float        # reference carrier, rad/s
    omega_free: float    # VCO free-running frequency, rad/s
    k0: float            # VCO gain, 1/(V*s)
    kd: float            # PD gain, V/rad
    tau1: float          # loop-filter integrator time constant, s
    tau2: float          # loop-filter zero time constant, s
    omega3: Optional[float] = None   # LPF corner, rad/s; conventional loops only

    @property
    def omega_n(self) -> float:
        """Natural frequency sqrt(K0*Kd/tau1), rad/s."""
        return math.sqrt(self.k0 * self.kd / self.tau1)

    @property
    def zeta(self) -> float:
        """Damping factor omega_n*tau2/2."""
        return self.omega_n * self.tau2 / 2.0

    @property
    def omega_c(self) -> float:
        """Loop-filter corner frequency 1/tau2, rad/s."""
        return 1.0 / self.tau2

    @property
    def delta_omega0(self) -> float:
        """Initial frequency deviation omega1 - omega_free, rad/s."""
        return self.omega1 - self.omega_free

    @property
    def k_h(self) -> float:
        """High-frequency loop-filter gain tau2/tau1."""
        return self.tau2 / self.tau1

    def with_offset(self, delta_omega0: float) -> "LoopParams":
        """Same loop, retuned so that omega1 - omega_free = delta_omega0.
        ValueError when that omega_free is not finite, or when omega1's
        resolution moves the offset it realizes by more than :data:`REL_TOL`
        relative."""
        omega_free = self.omega1 - delta_omega0
        if not math.isfinite(omega_free):
            raise ValueError(f"derived constant delta_omega0 = {delta_omega0!r} is out of "
                             f"range: omega1 - delta_omega0 must be finite")
        realized = self.omega1 - omega_free
        if delta_omega0 != 0 and realized == 0:
            raise ValueError(f"offset delta_omega0 = {delta_omega0!r} rad/s is below the "
                             f"resolution of omega1 = {self.omega1!r} rad/s: it retunes to 0.0")
        if abs(realized - delta_omega0) > REL_TOL * abs(delta_omega0):
            raise ValueError(f"offset delta_omega0 = {delta_omega0!r} rad/s is too fine for the "
                             f"resolution of omega1 = {self.omega1!r} rad/s: it retunes to "
                             f"{realized!r}, more than {REL_TOL:g} relative off")
        return replace(self, omega_free=omega_free)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _PARAMS_KEYS}

    @classmethod
    def from_dict(cls, d) -> "LoopParams":
        """The one reader of a params object, such as ``design``'s ``params``.

        Accepts exactly the keys :meth:`to_dict` writes and requires the six
        gains.  Every value must be a finite number; ``omega3`` may be null
        or absent.  ``tau1``, ``tau2``, ``k0``, ``kd`` and a present
        ``omega3`` must be > 0.  A derived key (``omega_c``, ``omega_n``,
        ``zeta``, ``delta_omega0``) is checked against the gains to
        :data:`REL_TOL` relative, never trusted.  Raises ValueError naming
        the offending key.
        """
        if not isinstance(d, dict):
            raise ValueError(f"params must be a JSON object, got {d!r}")
        unknown = set(d) - set(_PARAMS_KEYS)
        if unknown:
            raise ValueError(f"unknown params keys: {sorted(unknown)}")
        missing = [k for k in _GAIN_KEYS if k not in d]
        if missing:
            raise ValueError(f"missing params keys: {missing}")
        for key, value in d.items():
            if not (key == "omega3" and value is None):
                check_real(value, f"params.{key}")
        for key in ("tau1", "tau2", "k0", "kd", "omega3"):
            if d.get(key) is not None and not d[key] > 0:
                raise ValueError(f"params.{key} must be > 0, got {d[key]!r}")
        p = cls(*(d[k] for k in _GAIN_KEYS), d.get("omega3"))
        for key in _DERIVED_KEYS:
            if key in d and not _rel_err(d[key], getattr(p, key)) <= REL_TOL:
                raise ValueError(
                    f"params.{key} = {d[key]!r} disagrees with the gains, "
                    f"which give {getattr(p, key)!r}"
                )
        return p


def _rel_err(actual: float, expected: float) -> float:
    scale = max(abs(actual), abs(expected), 1e-300)
    return abs(actual - expected) / scale


@dataclass
class SimResult:
    """Time series plus the acquisition bookkeeping for one loop run.

    ``ud``, ``i2`` and ``q2`` (the PD output and the two branch signals)
    are None for a run recorded without them (``run_loop``'s
    ``signals``); every other field is always set.
    """

    t: np.ndarray
    theta_e: np.ndarray
    ud: Optional[np.ndarray]
    uf: np.ndarray
    omega2: np.ndarray
    i2: Optional[np.ndarray]
    q2: Optional[np.ndarray]
    t_lock: Optional[float]     # the one lock instant; None when unlocked
    cycle_slips: int
    final_freq_error: float
    f_samp: float               # sampling rate of the time series, Hz

    @property
    def locked(self) -> bool:
        """Whether the run locked: it has a lock instant ``t_lock``."""
        return self.t_lock is not None

    @property
    def pull_in_time(self) -> Optional[float]:
        """The acquisition's pull-in time: the lock instant ``t_lock``."""
        return self.t_lock


CSV_BLOCK = 4096      # rows formatted per numpy pass


# --- the "%.11e" field formatter ---------------------------------------------
#
# A field is laid out in five 4-byte words, sign|d0|.|d1, d2-d5, d6-d9,
# d10|d11|e|exponent sign and exponent|separator, with a space wherever a
# character is absent (no minus sign, a 2-digit exponent); the spaces are
# deleted from the whole block at once.  The word tables are built from
# bytes, and the words are read back as bytes, so the layout does not
# depend on the byte order.

def _words(text: str) -> np.ndarray:
    """``text``, whose length is a multiple of 4, as a table of uint32 words."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


_P10_LO = -300
_P10 = np.array([float(f"1e{j}") for j in range(_P10_LO, 309)])   # correctly rounded
_PAIRS = [f"{i:02d}" for i in range(100)]
# 0000..9999: each 2-character word 00..99 beside each, built as words
# rather than from 10,000 strings, whose objects would cost import time
_P2 = np.frombuffer("".join(_PAIRS).encode("ascii"), np.uint16)
_DIGITS4 = np.stack(np.broadcast_arrays(_P2[:, None], _P2), -1).view(np.uint32).ravel()
# sign|d0|.|d1 at 100 * (x < 0) + d0d1
_LEAD = _words("".join([f"{sign}{d[0]}.{d[1]}" for sign in " -" for d in _PAIRS]))
# d10|d11|e|exponent sign at 2 * d10d11 + (exponent < 0)
_TAIL = _words("".join([f"{d}e{sign}" for d in _PAIRS for sign in "+-"]))
# exponent|separator at 2 * |exponent| + (last column); a last column ends the line
_EXP = _words("".join([f"{e:02d}".rjust(3) + sep for e in range(310) for sep in ",\n"]))
del _PAIRS, _P2


def _format_block(v: np.ndarray, buf: bytearray, text=None) -> bytes:
    """The CSV lines of the float rows ``v`` as ASCII bytes, each field
    ``"%.11e"``, and the strings ``text`` as a last column if given.
    ``buf``, 20 bytes per field of ``v``, is overwritten with the fields.

    ``e = floor(log10|x|)`` and ``s = |x| * 10**(11 - e)`` in float: both
    rounding steps are correctly rounded, so ``s`` is within 2.3e-4 of its
    exact value, and its nearest integer is the exact 12 digits wherever
    1e-290 < |x| < 1e290, 1e11 <= s < 1e12 and s is more than 1e-3 from a
    tie (a log10 that is off by one leaves s out of range; an exact s just
    below 1e11 rounds up to the same digits).  Digits that round up to
    1e12 (|x| just below a power of ten, as 0.9999999999996 is) carry
    into the exponent: 1e11 and e + 1.  Zeros, signed by their sign bit,
    are the digits 0 and the exponent +00.  Every other value (nan, inf,
    subnormals, the range edges, near-ties) is formatted by ``"%.11e" %``
    into its slot.  The digit groups come from ``//`` by constants, which
    numpy does as a multiply (Granlund and Montgomery, PLDI 1994).
    """
    # temporaries are updated in place and dropped once used: a block's
    # arrays, not its values, set the writer's peak memory
    a = np.abs(v)
    zero = a == 0.0
    fast = (a > 1e-290) & (a < 1e290)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s = _P10[11 - _P10_LO - e]
    s *= a
    del a
    r = np.rint(s)
    fast &= (s >= 1e11) & (s < 1e12)
    s -= r
    fast &= np.abs(s, out=s) < 0.499
    del s
    # +-0 is the digits 0 and the exponent +00 (e is 0 from the 1.0 above)
    np.copyto(r, 0.0, where=zero)
    fast |= zero
    del zero
    top = r == 1e12                     # the decade carry
    e += top
    top |= ~fast                        # the rest keeps the table indices in range
    np.copyto(r, 1e11, where=top)
    del top
    words = np.frombuffer(buf, np.uint32).reshape(v.shape + (5,))
    lo = r.astype(np.int64)             # the 12 digits, 0 <= lo < 1e12
    del r
    hi = lo // 1000000                  # d0-d5
    lo -= hi * 1000000                  # d6-d11
    q = hi // 10000                     # d0d1
    hi -= q * 10000                     # d2-d5
    q += 100 * np.signbit(v)
    words[..., 0] = _LEAD[q]
    words[..., 1] = _DIGITS4[hi]
    q = lo // 100                       # d6-d9
    lo -= q * 100                       # d10d11
    words[..., 2] = _DIGITS4[q]
    lo *= 2
    lo += e < 0
    words[..., 3] = _TAIL[lo]
    del q, hi, lo
    last = np.arange(v.shape[1]) == v.shape[1] - 1
    np.abs(e, out=e)
    e *= 2
    e += last
    words[..., 4] = _EXP[e]
    del e
    slow = np.flatnonzero(~fast)        # flat: a 2-D nonzero costs 9x as much
    if len(slow):
        vals = v.ravel()[slow].tolist()
        chars = words.view(np.uint8).reshape(-1, 20)
        # at most 19 characters ("-1.79769313486e+308"), then the separator
        # that the exponent word has put in place
        fill = ("%-19.11e" * len(vals)) % tuple(vals)
        chars[slow, :19] = np.frombuffer(fill.encode("ascii"), np.uint8).reshape(-1, 19)
    lines = buf.translate(None, b" ")
    if text is None:
        return lines
    return "".join([f"{line},{t}\n" for line, t in zip(lines.decode().split("\n"), text)]).encode()


def write_csv_rows(fh, columns, text=None) -> None:
    """Write one ASCII CSV line per row of the equal-length float ``columns``
    to the binary file ``fh``, each field CPython's ``format(v, ".11e")``
    (also for -0.0, nan, inf and subnormals), :data:`CSV_BLOCK` rows a pass.

    ``text``, if given, holds one string per row, written as a last column.
    """
    buf = bytearray(20 * len(columns) * min(len(columns[0]), CSV_BLOCK))
    for start in range(0, len(columns[0]), CSV_BLOCK):
        rows = slice(start, start + CSV_BLOCK)
        v = np.column_stack([c[rows] for c in columns])
        del buf[20 * v.size:]           # the last block can be shorter
        fh.write(_format_block(v, buf, None if text is None else text[rows]))


def count_cycle_slips(theta_e: np.ndarray, period: float, out=None) -> int:
    """Number of lock-cell boundary crossings of the unwrapped phase error.

    A slip is counted every time theta_e leaves one period-wide cell
    centered on a lock point (:func:`lock_cells`) and enters the next;
    re-crossings count again (the quantity is total crossings, not net
    displacement).  ``out``, a float64 array shaped like ``theta_e``,
    receives the cells when given, for a caller that reads them too.
    """
    steps = np.diff(lock_cells(theta_e, period, out))
    return int(np.abs(steps, out=steps).sum())


def bisect(on_lo_side, lo: float, hi: float, done) -> tuple[float, float]:
    """Halve the bracket (lo, hi) at its midpoint until ``done(lo, hi)`` or
    lo and hi are adjacent floats, and return the last bracket.  A midpoint
    where ``on_lo_side`` is true becomes lo, any other hi.  The ends are
    never evaluated: the caller checks its own bracket."""
    while not done(lo, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break   # lo and hi are adjacent floats
        if on_lo_side(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


# --- functions rebuilt from their own source ----------------------------------


def source_def(func) -> ast.FunctionDef:
    """The ``def`` of the module-level function ``func``, parsed from its
    file, every node numbered as in the file."""
    code = func.__code__
    first, last = code.co_firstlineno, max(line for *_, line in code.co_lines() if line)
    # def to last line with bytecode (cut short, it fails to parse), numbered as in the file
    source = "\n" * (first - 1) + "".join(linecache.getlines(code.co_filename)[first - 1:last])
    return ast.parse(source).body[0]


def placed(source: str, at: ast.AST) -> list[ast.stmt]:
    """The statements of ``source``, each node at ``at``'s source position."""
    body = ast.parse(source).body
    for node in ast.walk(ast.Module(body, [])):
        ast.copy_location(node, at)
    return body


def rebuild(func, transform):
    """The function made by ``transform(source_def(func))``, a ``def`` node,
    compiled under ``func``'s file name (so a traceback points into
    ``func``'s source) and executed in ``func``'s module globals.  The one
    place in the package that makes code at run time."""
    node = transform(source_def(func))
    namespace = {}
    exec(compile(ast.Module([node], []), func.__code__.co_filename, "exec"),
         func.__globals__, namespace)
    return namespace[node.name]
