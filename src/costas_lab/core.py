"""Shared domain types for the carrier-recovery lab.

All quantities are SI internally: angular frequencies in rad/s, times in
seconds, detector outputs in volts.  Hz enters and leaves only at the CLI
boundary.  Phase errors are kept unwrapped so cycle slips stay countable;
wrapping is a view operation (see :func:`wrap_phase`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Distance-preserving wrap of ``theta`` into (-period/2, period/2]."""
    wrapped = theta - period * np.round(np.asarray(theta, dtype=float) / period)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class LoopParams:
    """All loop constants plus the derived second-order normalization.

    ``omega_n`` and ``zeta`` are stored, not recomputed on the fly; the
    constructor guarantees they are consistent with the gains and
    :func:`validate_params` re-checks the relations to 1e-9 relative.
    """

    omega1: float        # reference carrier, rad/s
    omega_free: float    # VCO free-running frequency, rad/s
    k0: float            # VCO gain, 1/(V*s)
    kd: float            # PD gain, V/rad
    tau1: float          # loop-filter integrator time constant, s
    tau2: float          # loop-filter zero time constant, s
    omega_n: float       # natural frequency, rad/s
    zeta: float          # damping factor
    omega3: Optional[float] = None   # LPF corner, rad/s; conventional loops only

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

    @classmethod
    def from_gains(
        cls,
        omega1: float,
        omega_free: float,
        k0: float,
        kd: float,
        tau1: float,
        tau2: float,
        omega3: Optional[float] = None,
    ) -> "LoopParams":
        """Build params deriving (omega_n, zeta) from the raw gains."""
        omega_n = math.sqrt(k0 * kd / tau1)
        zeta = omega_n * tau2 / 2.0
        return cls(omega1, omega_free, k0, kd, tau1, tau2, omega_n, zeta, omega3)

    def with_offset(self, delta_omega0: float) -> "LoopParams":
        """Same loop, retuned so that omega1 - omega_free = delta_omega0."""
        return LoopParams(
            self.omega1,
            self.omega1 - delta_omega0,
            self.k0,
            self.kd,
            self.tau1,
            self.tau2,
            self.omega_n,
            self.zeta,
            self.omega3,
        )

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
    def from_dict(cls, d: dict) -> "LoopParams":
        return cls(
            omega1=d["omega1"],
            omega_free=d["omega_free"],
            k0=d["k0"],
            kd=d["kd"],
            tau1=d["tau1"],
            tau2=d["tau2"],
            omega_n=d["omega_n"],
            zeta=d["zeta"],
            omega3=d.get("omega3"),
        )


def _rel_err(actual: float, expected: float) -> float:
    scale = max(abs(actual), abs(expected), 1e-300)
    return abs(actual - expected) / scale


def validate_params(p: LoopParams, rel_tol: float = REL_TOL) -> list[str]:
    """Check every LoopParams invariant; returns a list of violations.

    An empty list means the parameter set is internally consistent to
    ``rel_tol`` relative accuracy.
    """
    violations = []
    for name in ("tau1", "tau2", "k0", "kd"):
        if getattr(p, name) <= 0:
            violations.append(f"{name} must be > 0, got {getattr(p, name)}")
    if p.omega3 is not None and p.omega3 <= 0:
        violations.append(f"omega3 must be > 0 when present, got {p.omega3}")
    if p.tau1 > 0 and p.kd > 0 and p.k0 > 0:
        if _rel_err(p.omega_n**2 * p.tau1, p.k0 * p.kd) > rel_tol:
            violations.append(
                f"omega_n^2*tau1 = {p.omega_n**2 * p.tau1:.6g} "
                f"!= k0*kd = {p.k0 * p.kd:.6g}"
            )
        if _rel_err(2.0 * p.zeta, p.omega_n * p.tau2) > rel_tol:
            violations.append(
                f"2*zeta = {2.0 * p.zeta:.6g} != omega_n*tau2 = "
                f"{p.omega_n * p.tau2:.6g}"
            )
    return violations


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
    (the quantity is total crossings, not net displacement).
    """
    cells = np.floor((np.asarray(theta_e) + period / 2.0) / period).astype(np.int64)
    return int(np.abs(np.diff(cells)).sum())
