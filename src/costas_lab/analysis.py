"""Closed-form design and acquisition-metric prediction engine.

Designs loop parameters from a carrier frequency and symbol rate using the
45-degree-phase-margin recipe (unity open-loop gain at the loop-filter
corner), and evaluates the lock-in, pull-in, and hold-in metrics for all
four loop variants.  The transcendental pull-in condition has both a
closed-form solution and an independent bisection solver; the bisection
result is the oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import LoopParams, LoopVariant, PdFlavor, VariantTag, check_real
from .detectors import PdCharacteristic

TWO_PI = 2.0 * math.pi


class DesignError(ValueError):
    """Invalid design spec or degenerate loop configuration."""


class RangeError(ValueError):
    """Requested operating point outside a formula's validity range."""


def round_sig(x: float) -> float:
    """Round to two significant digits (component-value snapping)."""
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, 1 - exp)


@dataclass(frozen=True)
class DesignSpec:
    """Inputs to the parameter design recipe."""

    f0: float                      # carrier / center frequency, Hz
    f_symbol: float                # symbol rate, symbols/s
    variant: LoopVariant
    omega_t_ratio: float = 0.1     # transit frequency as a fraction of omega0
    tau1: float = 20e-6            # free choice; scales K0 only
    m: float = 1.0                 # modulation amplitude

    def validate(self) -> None:
        for name in ("f0", "f_symbol", "omega_t_ratio", "tau1", "m"):
            check_real(getattr(self, name), name)
        if self.f0 <= 0 or self.f_symbol <= 0:
            raise DesignError("f0 and f_symbol must be > 0")
        if self.f_symbol >= self.f0:
            raise DesignError("symbol rate must be below the carrier frequency")
        if not 0.0 < self.omega_t_ratio <= 0.1:
            raise DesignError("omega_t_ratio must lie in (0, 0.1]")
        if self.tau1 <= 0 or self.m <= 0:
            raise DesignError("tau1 and m must be > 0")


def design(spec: DesignSpec) -> LoopParams:
    """Design loop constants for a 45-degree phase margin.

    The transit frequency is placed at ``omega_t_ratio * omega0`` and the
    loop-filter corner on top of it; tau2 = 1/omega_c is then snapped to
    two significant digits (a component-style value, e.g. 3.9789 us ->
    4 us) and the corner recomputed from the snapped tau2 so the stored
    parameters stay exactly self-consistent.  K0 follows from unity
    open-loop gain at the corner, and the LPF corner sits at twice the
    symbol rate for the conventional loops (the modified loops have no
    LPF).
    """
    spec.validate()
    omega0 = TWO_PI * spec.f0
    omega_t = spec.omega_t_ratio * omega0
    tau2 = round_sig(1.0 / omega_t)
    omega_c = 1.0 / tau2
    kd = PdCharacteristic(spec.variant, spec.m).kd
    k0 = omega_c**2 * spec.tau1 / kd
    omega3 = 2.0 * TWO_PI * spec.f_symbol if spec.variant.is_conventional else None
    return LoopParams(
        omega1=omega0,
        omega_free=omega0,
        k0=k0,
        kd=kd,
        tau1=spec.tau1,
        tau2=tau2,
        omega3=omega3,
    )


# --- lock-in ---------------------------------------------------------------

# variant tag -> (factor of zeta*omega_n, formula id)
_LOCK_IN = {
    VariantTag.CONVENTIONAL_BPSK: (1.0, "lock-in:zeta*omega_n"),
    VariantTag.CONVENTIONAL_QPSK: (math.sqrt(2.0), "lock-in:sqrt2*zeta*omega_n"),
    VariantTag.MODIFIED_BPSK: (math.pi, "lock-in:pi*zeta*omega_n"),
    VariantTag.MODIFIED_QPSK: (math.pi / 2.0, "lock-in:pi/2*zeta*omega_n"),
}


def lock_in_range(params: LoopParams, variant: LoopVariant) -> float:
    """Largest detuning acquired within one beat note, rad/s."""
    return _LOCK_IN[variant.tag][0] * params.zeta * params.omega_n


def lock_time(params: LoopParams) -> float:
    """One period of the natural frequency, the fast-acquisition estimate."""
    return TWO_PI / params.omega_n


# --- pull-in range ---------------------------------------------------------

def _check_pullin_preconditions(params: LoopParams) -> None:
    if params.omega3 is None:
        raise RangeError("conventional-loop pull-in needs an LPF corner omega3")
    if params.omega3 <= params.omega_c:
        raise RangeError(
            f"pull-in closed forms degenerate for omega3 <= omega_c "
            f"({params.omega3:g} <= {params.omega_c:g})"
        )


def pull_in_range(params: LoopParams, variant: LoopVariant) -> float:
    """Closed-form pull-in limit, rad/s; inf for the modified loops."""
    if variant.is_modified:
        return math.inf
    _check_pullin_preconditions(params)
    w3, wc = params.omega3, params.omega_c
    if variant.tag is VariantTag.CONVENTIONAL_BPSK:
        return w3 * math.sqrt(1.0 - wc / w3)
    r = wc / w3
    q = 6.0 - r
    u = (q - math.sqrt(q * q - 4.0 * (1.0 - r))) / 2.0
    return w3 * math.sqrt(u)


def total_phase_lag(params: LoopParams, variant: LoopVariant, delta_omega: float) -> float:
    """Beat-frequency phase lag through LPFs and loop filter, radians.

    BPSK accumulates two LPF lags at the beat frequency plus the loop
    filter lag at twice the beat; QPSK four LPF lags plus the loop filter
    at four times the beat.
    """
    if params.omega3 is None:
        raise RangeError("total phase lag defined for conventional loops only")
    n = 4 if variant.is_qpsk else 2
    phi1 = -math.atan(delta_omega / params.omega3)
    phi2 = -math.pi / 2.0 + math.atan(n * delta_omega / params.omega_c)
    return n * phi1 + phi2


def pull_in_range_numeric(params: LoopParams, variant: LoopVariant) -> float:
    """Bisection root of the phase-lag condition lag(delta_omega) = -pi/2,
    to a bracket width of 1e-9 relative.

    Independent of the closed forms in :func:`pull_in_range`; serves as
    their oracle.
    """
    if variant.is_modified:
        return math.inf
    _check_pullin_preconditions(params)
    n = 4 if variant.is_qpsk else 2

    def f(dw: float) -> float:
        return n * math.atan(dw / params.omega3) - math.atan(
            n * dw / params.omega_c
        )

    lo, hi = 0.0, 100.0 * params.omega3
    if f(hi) <= 0.0:
        raise RangeError("no sign change in the pull-in bisection bracket")
    # f(0+) < 0 because omega_c < omega3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return 0.5 * (lo + hi)


# --- pull-in time ----------------------------------------------------------

def _beat_note_pull_in_time(
    params: LoopParams,
    delta_omega0: float,
    delta_omega_l: float,
    delta_omega_p: float,
    averaged_constant: float,
) -> float:
    """Common log-form pull-in time of the conventional loops.

    ``averaged_constant`` is the variant's beat-asymmetry constant C in
    ud_mean = C * K0 * Kd^2 * KH * cos(phi_tot)/delta_omega; the
    straight-line cosine approximation turns the slow-pull ODE into the
    closed log expression below.
    """
    pref = delta_omega_p / (2.0 * averaged_constant * params.zeta * params.omega_n**3)
    bracket = (
        delta_omega_p
        * math.log((delta_omega_p - delta_omega_l) / (delta_omega_p - delta_omega0))
        - delta_omega0
        + delta_omega_l
    )
    return pref * bracket


_QPSK_BEAT_CONSTANT = 0.373**2  # asymmetry constant of the chopped-sine beat

# (variant tag, PD flavor) -> (coefficient, formula id).  Conventional
# loops: the beat-asymmetry constant of the log form; modified loops: the
# factor of offset^2/(zeta*omega_n^3).
_PULL_IN_TIME = {
    (VariantTag.CONVENTIONAL_BPSK, PdFlavor.MUL_MUL): (1.0 / math.pi**2, "tp:beat-log/pi^2"),
    (VariantTag.CONVENTIONAL_QPSK, PdFlavor.SGN_CROSS): (_QPSK_BEAT_CONSTANT,
                                                         "tp:beat-log/0.373^2"),
    (VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_PHASE): (2.0 / math.pi**2, "tp:2/pi^2*offset^2"),
    (VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_PHASE): (16.0 / math.pi**2,
                                                         "tp:16/pi^2*offset^2"),
    (VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG): (math.pi**2 / 16.0, "tp:pi^2/16*offset^2"),
    (VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG): (1.78, "tp:1.78*offset^2"),
}


def pull_in_time_formula(
    params: LoopParams, variant: LoopVariant, delta_omega0: float
) -> float:
    """Raw variant pull-in-time formula, no fast-acquisition floor.

    Conventional loops use the log form, valid for lock-in < offset <
    pull-in, and raise RangeError outside that interval; modified loops
    use the quadratic-in-offset form.  The sweep theory column uses this
    directly.
    """
    if delta_omega0 <= 0:
        raise RangeError("delta_omega0 must be > 0")
    coef = _PULL_IN_TIME[(variant.tag, variant.pd_flavor)][0]
    if variant.is_modified:
        return coef * delta_omega0**2 / (params.zeta * params.omega_n**3)
    dw_p = pull_in_range(params, variant)
    if delta_omega0 >= dw_p:
        raise RangeError(
            f"offset {delta_omega0:g} outside the pull-in range {dw_p:g}"
        )
    dw_l = lock_in_range(params, variant)
    if delta_omega0 <= dw_l:
        raise RangeError(
            f"offset {delta_omega0:g} inside the lock-in range {dw_l:g}"
        )
    return _beat_note_pull_in_time(params, delta_omega0, dw_l, dw_p, coef)


def pull_in_time(
    params: LoopParams, variant: LoopVariant, delta_omega0: float
) -> float:
    """Pull-in time with the fast-acquisition floor.

    Offsets at or below the lock-in range acquire within one beat note, so
    the lock time is returned there instead of extrapolating the slow-pull
    formulas.
    """
    if delta_omega0 <= lock_in_range(params, variant):
        return lock_time(params)
    return pull_in_time_formula(params, variant, delta_omega0)


# --- hold-in ---------------------------------------------------------------

@dataclass(frozen=True)
class HoldInResult:
    """Hold-in ranges as intervals of |delta_omega0|, with provenance."""

    intervals: tuple[tuple[float, float], ...]
    unbounded: bool
    formula_id: str
    case: str = ""

    def contains(self, delta_omega0: float) -> bool:
        v = abs(delta_omega0)
        if self.unbounded:
            return True
        return any(lo < v < hi for lo, hi in self.intervals)

    def to_dict(self) -> dict:
        return {
            "intervals": [list(iv) for iv in self.intervals],
            "unbounded": self.unbounded,
            "formula_id": self.formula_id,
            "case": self.case,
        }


def hold_in_pi(params: LoopParams) -> HoldInResult:
    """Hold-in range of the PI-filter (type-2) loops.

    The integrator cancels any constant detuning, so the static equation
    is always solvable and the hold-in range is unbounded; with no control
    authority (k0*kd == 0) it is empty instead.
    """
    if params.k0 * params.kd <= 0:
        return HoldInResult((), unbounded=False, formula_id="type-2-PI", case="degenerate")
    return HoldInResult((), unbounded=True, formula_id="type-2-PI")


def leadlag_char_poly(
    k0: float, kd: float, tau1: float, tau2: float, omega3: float, cos2theta: float
) -> list[float]:
    """Characteristic polynomial of the lead-lag loop linearized at an
    equilibrium with the given cos(2*theta_eq); ascending coefficients."""
    g = 0.5 * k0 * kd * cos2theta
    return [
        g,
        1.0 + g * tau2,
        tau1 + 1.0 / omega3,
        tau1 / omega3,
    ]


def routh_hurwitz_stable(coeffs) -> bool:
    """True iff every root of the real polynomial (ascending coefficients)
    has strictly negative real part, by the Routh-Hurwitz test.

    The polynomial is first frequency-normalized (s -> wbar*s with wbar
    the geometric mean root magnitude) so the verdict is invariant to
    unit choices.  Zero first-column entries are epsilon-perturbed; any
    first-column entry within 1e-8 of the normalized scale counts as a
    boundary (marginal) case, never stable.
    """
    coeffs = [float(c) for c in coeffs]
    nonzero = [k for k, c in enumerate(coeffs) if c != 0.0]
    deg = nonzero[-1] if nonzero else -1
    if deg < 1:
        raise ValueError("polynomial must have degree >= 1")
    coeffs = coeffs[: deg + 1]
    if coeffs[0] == 0.0:
        return False  # root at the origin
    wbar = (abs(coeffs[0]) / abs(coeffs[deg])) ** (1.0 / deg)
    desc = [c * wbar**k for k, c in enumerate(coeffs)][::-1]
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
    return all(v > margin for v in first_col)


def hold_in_leadlag(
    k0: float, kd: float, tau1: float, tau2: float, omega3: float
) -> HoldInResult:
    """Hold-in range of the BPSK loop with a lead-lag loop filter.

    The static relation sin(2*theta_eq) = 2*delta_omega0/(K0*Kd) caps the
    range at K0*Kd/2.  Stability of the equilibrium branch with
    cos(2*theta_eq) > 0 is governed by the cubic characteristic
    polynomial: for wide LPFs (omega3 >= (tau1-tau2)/(tau1*tau2)) every
    such equilibrium is stable, while narrow LPFs additionally demand
    cos(2*theta_eq) below a threshold, which carves the low-detuning core
    out of the interval and leaves a split (annular) hold-in range.
    """
    for name, value in zip(("k0", "kd", "tau1", "tau2", "omega3"),
                           (k0, kd, tau1, tau2, omega3)):
        check_real(value, name)
    if not (tau1 > tau2 > 0):
        raise DesignError("lead-lag requires tau1 > tau2 > 0")
    if omega3 <= 0 or k0 <= 0 or kd <= 0:
        raise DesignError("omega3, k0, kd must be > 0")
    cap = k0 * kd / 2.0
    omega3_star = (tau1 - tau2) / (tau1 * tau2)
    if omega3 >= omega3_star:
        return HoldInResult(
            ((0.0, cap),),
            unbounded=False,
            formula_id="leadlag-routh-hurwitz",
            case="wide-lpf",
        )
    cos_max = (2.0 / (k0 * kd)) * (1.0 + omega3 * tau1) / (tau1 - tau2 - omega3 * tau1 * tau2)
    if cos_max >= 1.0:
        return HoldInResult(
            ((0.0, cap),),
            unbounded=False,
            formula_id="leadlag-routh-hurwitz",
            case="narrow-lpf-full",
        )
    inner = cap * math.sqrt(1.0 - cos_max**2)
    return HoldInResult(
        ((inner, cap),),
        unbounded=False,
        formula_id="leadlag-routh-hurwitz",
        case="narrow-lpf-split",
    )


def leadlag_equilibrium_stable(
    k0: float, kd: float, tau1: float, tau2: float, omega3: float, delta_omega0: float
) -> bool:
    """Direct stability verdict for one detuning: solve the static phase
    relation on the cos > 0 branch and Routh-test the linearization cubic."""
    s = 2.0 * abs(delta_omega0) / (k0 * kd)
    if s >= 1.0:
        return False
    cos2theta = math.sqrt(1.0 - s * s)
    poly = leadlag_char_poly(k0, kd, tau1, tau2, omega3, cos2theta)
    return routh_hurwitz_stable(poly)


# --- prediction report ------------------------------------------------------

@dataclass
class PredictionReport:
    """Closed-form acquisition metrics for one variant, with provenance."""

    variant: LoopVariant
    delta_omega_l: float
    t_l: float
    delta_omega_p: float            # math.inf marks the unbounded case
    delta_omega_p_numeric: Optional[float]
    hold_in: HoldInResult
    formula_ids: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.tag.value,
            "pd_flavor": self.variant.pd_flavor.value,
            "delta_omega_l": self.delta_omega_l,
            "lock_in_hz": self.delta_omega_l / TWO_PI,
            "t_l": self.t_l,
            "delta_omega_p": (
                "unbounded" if math.isinf(self.delta_omega_p) else self.delta_omega_p
            ),
            "delta_omega_p_numeric": self.delta_omega_p_numeric,
            "pull_in_hz": (
                "unbounded"
                if math.isinf(self.delta_omega_p)
                else self.delta_omega_p / TWO_PI
            ),
            "hold_in": self.hold_in.to_dict(),
            "formula_ids": self.formula_ids,
        }


def predict(params: LoopParams, variant: LoopVariant) -> PredictionReport:
    """Full acquisition report for one designed loop."""
    dw_l = lock_in_range(params, variant)
    t_l = lock_time(params)
    if variant.is_modified:
        dw_p, dw_p_num = math.inf, None
        pullin_tag = "pull-in:unbounded-no-phase-reversal"
    else:
        dw_p = pull_in_range(params, variant)
        dw_p_num = pull_in_range_numeric(params, variant)
        pullin_tag = "pull-in:phase-lag-pi/2-closed-form"
    hold = hold_in_pi(params)
    formula_ids = {
        "delta_omega_l": _LOCK_IN[variant.tag][1],
        "t_l": "lock-time:2pi/omega_n",
        "delta_omega_p": pullin_tag,
        "t_p": _PULL_IN_TIME[(variant.tag, variant.pd_flavor)][1],
        "hold_in": hold.formula_id,
    }
    if dw_l > dw_p:
        raise RangeError("lock-in range exceeds pull-in range; degenerate design")
    return PredictionReport(
        variant=variant,
        delta_omega_l=dw_l,
        t_l=t_l,
        delta_omega_p=dw_p,
        delta_omega_p_numeric=dw_p_num,
        hold_in=hold,
        formula_ids=formula_ids,
    )
