"""Shared domain types for the carrier-recovery lab.

All quantities are SI internally: angular frequencies in rad/s, times in
seconds, detector outputs in volts.  Hz enters and leaves only at the CLI
boundary.  Phase errors are kept unwrapped so cycle slips stay countable;
wrapping is a view operation (see :func:`wrap_phase`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

REL_TOL = 1e-9


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


_VALID_FLAVORS = {
    VariantTag.CONVENTIONAL_BPSK: {PdFlavor.MUL_MUL},
    VariantTag.CONVENTIONAL_QPSK: {PdFlavor.SGN_CROSS},
    VariantTag.MODIFIED_BPSK: {PdFlavor.COMPLEX_PHASE, PdFlavor.COMPLEX_IMAG},
    VariantTag.MODIFIED_QPSK: {PdFlavor.COMPLEX_PHASE, PdFlavor.COMPLEX_IMAG},
}

_DEFAULT_FLAVOR = {
    VariantTag.CONVENTIONAL_BPSK: PdFlavor.MUL_MUL,
    VariantTag.CONVENTIONAL_QPSK: PdFlavor.SGN_CROSS,
    VariantTag.MODIFIED_BPSK: PdFlavor.COMPLEX_PHASE,
    VariantTag.MODIFIED_QPSK: PdFlavor.COMPLEX_PHASE,
}


@dataclass(frozen=True)
class LoopVariant:
    """One of the four loop topologies plus its phase-detector flavor."""

    tag: VariantTag
    pd_flavor: PdFlavor = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.pd_flavor is None:
            object.__setattr__(self, "pd_flavor", _DEFAULT_FLAVOR[self.tag])
        if self.pd_flavor not in _VALID_FLAVORS[self.tag]:
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


def wrap_phase(theta, period: float = 2.0 * math.pi):
    """Distance-preserving wrap of ``theta`` into [-period/2, period/2):
    ``theta`` less the center of its lock cell, the cell
    :func:`count_cycle_slips` counts, so a tie at an odd multiple of
    period/2 wraps to -period/2."""
    wrapped = theta - period * np.floor(np.asarray(theta, dtype=float) / period + 0.5)
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
        """Same loop, retuned so that omega1 - omega_free = delta_omega0."""
        return replace(self, omega_free=self.omega1 - delta_omega0)

    def to_dict(self) -> dict:
        return {
            "omega1": self.omega1,
            "omega_free": self.omega_free,
            "k0": self.k0,
            "kd": self.kd,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "omega3": self.omega3,
            "omega_c": self.omega_c,
            "omega_n": self.omega_n,
            "zeta": self.zeta,
            "delta_omega0": self.delta_omega0,
        }

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
        unknown = set(d) - {*_GAIN_KEYS, "omega3", *_DERIVED_KEYS}
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
    """Time series plus the acquisition bookkeeping for one loop run."""

    t: np.ndarray
    theta_e: np.ndarray
    ud: np.ndarray
    uf: np.ndarray
    omega2: np.ndarray
    i2: np.ndarray
    q2: np.ndarray
    locked: bool
    t_lock: Optional[float]
    pull_in_time: Optional[float]
    cycle_slips: int
    final_freq_error: float
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "locked": self.locked,
            "t_lock": self.t_lock,
            "pull_in_time": self.pull_in_time,
            "cycle_slips": self.cycle_slips,
            "final_freq_error": self.final_freq_error,
            "duration": float(self.t[-1]) if len(self.t) else 0.0,
            "samples": int(len(self.t)),
        }


CSV_FIELD = "%.11e"   # 12 significant digits, CPython's format(v, ".11e")
CSV_BLOCK = 4096      # rows formatted per % operation


def write_csv_rows(fh, columns, row_format: Optional[str] = None) -> None:
    """Write one CSV line per row of the equal-length ``columns`` to ``fh``.

    ``row_format`` is the printf-style format of one line, newline
    included; by default every field is :data:`CSV_FIELD`.  Each block of
    :data:`CSV_BLOCK` rows is formatted by a single ``%`` over the block's
    values as Python floats, which is ``format(v, ".11e")`` value for value
    (also for -0.0, nan, inf and subnormals) at a fraction of the per-value
    cost.
    """
    if row_format is None:
        row_format = ",".join([CSV_FIELD] * len(columns)) + "\n"
    n = len(columns[0])
    for start in range(0, n, CSV_BLOCK):
        block = np.column_stack([c[start:start + CSV_BLOCK] for c in columns])
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def count_cycle_slips(theta_e: np.ndarray, period: float) -> int:
    """Number of lock-cell boundary crossings of the unwrapped phase error.

    A slip is counted every time theta_e leaves one period-wide cell
    centered on a lock point and enters the next; re-crossings count again
    (the quantity is total crossings, not net displacement).  Cell k is
    ``floor(theta_e/period + 1/2) == k``, the half-open interval
    [(k - 1/2)*period, (k + 1/2)*period).
    """
    cells = np.floor(np.asarray(theta_e) / period + 0.5).astype(np.int64)
    return int(np.abs(np.diff(cells)).sum())
