"""Continuous-time filter descriptions and their discrete realizations.

Covers the three analog prototypes the loops use (PI loop filter,
first-order LPF, lead-lag), frequency-response evaluation, bilinear
discretization with per-corner prewarping, a direct-form-II-transposed
discrete filter, and a Routh-Hurwitz stability test used by the hold-in
analysis.

Polynomials are stored in ascending powers of s (coeffs[k] multiplies
s^k).  Discrete coefficients are in ascending powers of z^-1 with
a[0] == 1 after normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class FilterDesignError(ValueError):
    """Invalid filter parameters (non-positive time constant, ordering)."""


class FilterEvaluationError(ValueError):
    """Evaluation at a pole or other degenerate point."""


def _poly_degree(coeffs: Sequence[float]) -> int:
    deg = -1
    for k, c in enumerate(coeffs):
        if c != 0.0:
            deg = k
    return deg


def _polyval_ascending(coeffs: Sequence[float], s: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function in s, ascending-degree coefficients."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        deg_n, deg_d = _poly_degree(num), _poly_degree(den)
        if deg_d < 0:
            raise FilterDesignError("denominator is identically zero")
        if deg_n > deg_d + 1:
            raise FilterDesignError(
                "numerator degree may exceed denominator degree by at most 1"
            )

    @property
    def degree(self) -> tuple[int, int]:
        return _poly_degree(self.num), _poly_degree(self.den)


def make_pi_filter(tau1: float, tau2: float) -> RationalTF:
    """Proportional-plus-integral loop filter (1 + s*tau2)/(s*tau1)."""
    if tau1 <= 0 or tau2 <= 0:
        raise FilterDesignError(f"time constants must be > 0, got {tau1}, {tau2}")
    return RationalTF(num=(1.0, tau2), den=(0.0, tau1))


def make_lpf1(omega3: float) -> RationalTF:
    """First-order lowpass 1/(1 + s/omega3), unity DC gain."""
    if omega3 <= 0:
        raise FilterDesignError(f"corner frequency must be > 0, got {omega3}")
    return RationalTF(num=(1.0,), den=(1.0, 1.0 / omega3))


def make_leadlag(tau1: float, tau2: float) -> RationalTF:
    """Lead-lag filter (1 + s*tau2)/(1 + s*tau1) with tau1 > tau2 > 0."""
    if not (tau1 > tau2 > 0):
        raise FilterDesignError(
            f"lead-lag requires tau1 > tau2 > 0, got tau1={tau1}, tau2={tau2}"
        )
    return RationalTF(num=(1.0, tau2), den=(1.0, tau1))


def freq_response(tf: RationalTF, omega: float) -> complex:
    """Exact rational evaluation H(j*omega)."""
    s = 1j * omega
    den = _polyval_ascending(tf.den, s)
    scale = max(abs(c) * max(1.0, abs(omega)) ** k for k, c in enumerate(tf.den))
    if abs(den) <= 1e-14 * max(scale, 1e-300):
        raise FilterEvaluationError(f"pole at or near s = j*{omega:g}")
    return _polyval_ascending(tf.num, s) / den


@dataclass
class DiscreteFilter:
    """Rational discrete-time filter with direct-form-II-transposed state.

    ``b`` and ``a`` are coefficients in z^-1, a[0] == 1.  ``state`` holds
    the max(len(a), len(b)) - 1 delay registers.
    """

    b: tuple[float, ...]
    a: tuple[float, ...]
    sample_period: float
    state: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.sample_period <= 0:
            raise FilterDesignError("sample period must be > 0")
        b = [float(x) for x in self.b]
        a = [float(x) for x in self.a]
        if not a or a[0] == 0.0:
            raise FilterDesignError("a[0] must be nonzero")
        if a[0] != 1.0:
            b = [x / a[0] for x in b]
            a = [x / a[0] for x in a]
        n = max(len(a), len(b))
        b += [0.0] * (n - len(b))
        a += [0.0] * (n - len(a))
        self.b = tuple(b)
        self.a = tuple(a)
        if not self.state:
            self.state = [0.0] * (n - 1)
        elif len(self.state) != n - 1:
            raise FilterDesignError(
                f"state length must be {n - 1}, got {len(self.state)}"
            )


def step_filter(f: DiscreteFilter, u: float) -> float:
    """Advance the filter one sample (direct form II transposed)."""
    b, a, z = f.b, f.a, f.state
    if not z:
        return b[0] * u
    y = b[0] * u + z[0]
    for k in range(len(z) - 1):
        z[k] = b[k + 1] * u - a[k + 1] * y + z[k + 1]
    z[-1] = b[len(z)] * u - a[len(z)] * y
    return y


def _prewarped(omega: float, T: float) -> float:
    x = omega * T / 2.0
    if not 0.0 < x < math.pi / 2.0:
        raise FilterDesignError(
            f"corner {omega:g} rad/s cannot be prewarped at T={T:g}"
        )
    return (2.0 / T) * math.tan(x)


def _split_origin_roots(coeffs: Sequence[float]) -> tuple[int, list[float]]:
    """Return (number of roots at s=0, remaining ascending coefficients)."""
    coeffs = list(coeffs)
    k = 0
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)
        k += 1
    return k, coeffs


def _prewarp_poly(coeffs: Sequence[float], T: float) -> list[float]:
    """Move each nonzero real-axis corner of a polynomial to its prewarped
    location; roots at the origin are exact under the bilinear map and are
    left untouched."""
    n_origin, reduced = _split_origin_roots(coeffs)
    deg = _poly_degree(reduced)
    if deg <= 0:
        return list(coeffs)
    roots = np.roots(list(reversed(reduced)))
    new = np.array([reduced[0]], dtype=float)
    for r in roots:
        if abs(r.imag) > 1e-9 * abs(r) or r.real >= 0:
            raise FilterDesignError(
                "prewarping supports real negative corners only"
            )
        omega = -r.real
        new = np.convolve(new, [1.0, 1.0 / _prewarped(omega, T)])
    return [0.0] * n_origin + list(new)


def bilinear(
    tf: RationalTF, T: float, prewarp_at: Optional[float] = None
) -> DiscreteFilter:
    """Discretize via the bilinear substitution s = (2/T)(1-z^-1)/(1+z^-1).

    With ``prewarp_at`` given, every finite nonzero corner of the filter is
    first moved to its prewarped frequency (2/T)*tan(omega*T/2), so the
    discrete response at a corner equals the analog response there; poles
    and zeros at s=0 map exactly and are not prewarped.  A pure integrator
    g/s is special-cased to the backward-difference form g*T/(1 - z^-1),
    matching the digital-oscillator convention used by the loop designs.
    """
    if T <= 0:
        raise FilterDesignError("sample period must be > 0")
    num, den = list(tf.num), list(tf.den)
    deg_n, deg_d = _poly_degree(num), _poly_degree(den)
    if deg_n == 0 and deg_d == 1 and den[0] == 0.0:
        gain = num[0] / den[1]
        return DiscreteFilter(b=(gain * T,), a=(1.0, -1.0), sample_period=T)
    if prewarp_at is not None:
        if prewarp_at <= 0 or prewarp_at * T / 2.0 >= math.pi / 2.0:
            raise FilterDesignError(
                f"prewarp frequency {prewarp_at:g} out of range for T={T:g}"
            )
        num = _prewarp_poly(num, T)
        den = _prewarp_poly(den, T)
        deg_n, deg_d = _poly_degree(num), _poly_degree(den)
    # pole exactly at the bilinear singularity s = 2/T makes a(z) drop rank
    c = 2.0 / T
    den_at_c = _polyval_ascending(den, c).real
    scale = max(abs(x) * c**k for k, x in enumerate(den) if x != 0.0)
    if abs(den_at_c) <= 1e-12 * scale:
        raise FilterDesignError("pole at the bilinear singularity s = 2/T")

    n = max(deg_n, deg_d)
    # multiply through by (1+z^-1)^n: each s^k term becomes
    # (2/T)^k (1-z^-1)^k (1+z^-1)^(n-k)
    b = np.zeros(n + 1)
    a = np.zeros(n + 1)
    for k in range(n + 1):
        mono = np.array([1.0])
        for _ in range(k):
            mono = np.convolve(mono, [1.0, -1.0])
        for _ in range(n - k):
            mono = np.convolve(mono, [1.0, 1.0])
        mono = mono * c**k
        if k <= deg_n and num[k] != 0.0:
            b[: len(mono)] += num[k] * mono
        if k <= deg_d and den[k] != 0.0:
            a[: len(mono)] += den[k] * mono
    return DiscreteFilter(b=tuple(b), a=tuple(a), sample_period=T)


@dataclass(frozen=True)
class RouthResult:
    stable: bool
    marginal: bool


def routh_hurwitz(coeffs: Sequence[float]) -> RouthResult:
    """Routh-Hurwitz test on an ascending-coefficient real polynomial.

    The polynomial is first frequency-normalized (s -> wbar*s with wbar
    the geometric mean root magnitude) so the verdict is invariant to
    unit choices.  Zero first-column entries are epsilon-perturbed; any
    first-column entry within 1e-8 of the normalized scale counts as a
    boundary case, reported marginal and never stable.
    """
    coeffs = [float(c) for c in coeffs]
    deg = _poly_degree(coeffs)
    if deg < 1:
        raise ValueError("polynomial must have degree >= 1")
    coeffs = coeffs[: deg + 1]
    if coeffs[0] == 0.0:
        return RouthResult(stable=False, marginal=True)  # root at the origin
    wbar = (abs(coeffs[0]) / abs(coeffs[deg])) ** (1.0 / deg)
    scaled = [c * wbar**k for k, c in enumerate(coeffs)]
    desc = list(reversed(scaled))
    if desc[0] < 0:
        desc = [-c for c in desc]
    scale = max(abs(c) for c in desc)
    eps = 1e-30 * scale
    margin = 1e-8 * scale

    rows = [desc[0::2], desc[1::2]]
    width = len(rows[0])
    rows[1] += [0.0] * (width - len(rows[1]))
    first_col = [rows[0][0], rows[1][0]]
    for _ in range(deg - 1):
        upper, lower = rows[-2], rows[-1]
        pivot = lower[0]
        if pivot == 0.0:
            pivot = eps
        new = [0.0] * width
        for j in range(width - 1):
            new[j] = (pivot * upper[j + 1] - upper[0] * lower[j + 1]) / pivot
        rows.append(new)
        first_col.append(new[0])

    marginal = any(abs(v) <= margin for v in first_col)
    stable = all(v > 0.0 for v in first_col) and not marginal
    return RouthResult(stable=stable, marginal=marginal)


def routh_hurwitz_stable(coeffs: Sequence[float]) -> bool:
    """True iff every root of the polynomial has strictly negative real part."""
    return routh_hurwitz(coeffs).stable
