"""Closed-form design and acquisition-metric prediction engine.

Designs loop parameters from a carrier frequency and symbol rate using the
45-degree-phase-margin recipe (unity open-loop gain at the loop-filter
corner), and evaluates the lock-in, pull-in, and hold-in metrics for all
four loop variants.  The transcendental pull-in condition has both a
closed-form solution and an independent bisection solver; the bisection
result is the oracle the closed forms are tested against.

The pull-in time comes from one averaged beat-note model, the beat
frequency driven by the PD's DC output during a beat (``averaged_ud``):
:func:`pull_in_time_formula` is its closed-form integral, and
:func:`averaged_pull_in_time_numeric` integrates it numerically, both
with the beat constants of ``_PULL_IN_TIME``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .core import CONVENTIONAL_BPSK, CONVENTIONAL_QPSK, MODIFIED_BPSK, MODIFIED_QPSK
from .core import LoopParams, LoopVariant, PdFlavor, VariantTag, bisect, check_real
from .detectors import PdCharacteristic

TWO_PI = 2.0 * math.pi


class DesignError(ValueError):
    """Invalid design spec or degenerate loop configuration."""


class RangeError(ValueError):
    """Requested operating point outside a formula's validity range."""


def _derived(name: str, value: float) -> float:
    """``value``, or DesignError naming it when it is not finite and at
    least ``sys.float_info.min``: the constant overflowed, underflowed or
    vanished."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DesignError(f"derived constant {name} = {value!r} is out of range: "
                          f"it must be finite and at least {sys.float_info.min!r}")
    return value


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
    LPF).  Raises DesignError when a derived constant leaves the float
    range.
    """
    spec.validate()
    omega0 = _derived("omega0", TWO_PI * spec.f0)
    omega_t = _derived("omega_t", spec.omega_t_ratio * omega0)
    tau2 = _derived("tau2", round_sig(1.0 / omega_t))
    omega_c = _derived("omega_c", 1.0 / tau2)
    kd = _derived("kd", PdCharacteristic(spec.variant, spec.m).kd)
    k0 = _derived("k0", _pow(omega_c, 2) * spec.tau1 / kd)
    omega3 = None
    if spec.variant.is_conventional:
        omega3 = _derived("omega3", 2.0 * TWO_PI * spec.f_symbol)
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

# variant (tag and PD flavor) -> (lock-in factor of zeta*omega_n, its
# formula id, beat constant c, its formula id): the one source of each
# lock-in range, K0*(tau2/tau1)*max|phi|, and of each beat constant c of the
# averaged pull-in model (:func:`averaged_ud`).  Conventional loops: c is
# the beat-asymmetry constant of the log form (0.373^2 for the chopped-sine
# QPSK beat); modified loops: the factor of offset^2/(zeta*omega_n^3).
_PULL_IN_TIME = {
    CONVENTIONAL_BPSK: (1.0, "lock-in:zeta*omega_n", 1.0 / math.pi**2, "tp:beat-log/pi^2"),
    CONVENTIONAL_QPSK: (math.sqrt(2.0), "lock-in:sqrt2*zeta*omega_n",
                        0.373**2, "tp:beat-log/0.373^2"),
    MODIFIED_BPSK: (math.pi, "lock-in:pi*zeta*omega_n", 2.0 / math.pi**2, "tp:2/pi^2*offset^2"),
    MODIFIED_QPSK: (math.pi / 2.0, "lock-in:pi/2*zeta*omega_n",
                    16.0 / math.pi**2, "tp:16/pi^2*offset^2"),
    LoopVariant(VariantTag.MODIFIED_BPSK, PdFlavor.COMPLEX_IMAG):
        (2.0, "lock-in:2*zeta*omega_n", math.pi**2 / 16.0, "tp:pi^2/16*offset^2"),
    LoopVariant(VariantTag.MODIFIED_QPSK, PdFlavor.COMPLEX_IMAG):
        (math.sqrt(2.0), "lock-in:sqrt2*zeta*omega_n", 1.78, "tp:1.78*offset^2"),
}


def lock_in_range(params: LoopParams, variant: LoopVariant) -> float:
    """Largest detuning acquired within one beat note, rad/s."""
    return _PULL_IN_TIME[variant][0] * params.zeta * params.omega_n


def lock_time(params: LoopParams) -> float:
    """One period of the natural frequency, the fast-acquisition estimate.
    DesignError when omega_n is out of the float range (:func:`_derived`)."""
    return TWO_PI / _derived("omega_n", params.omega_n)


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
    """Bisection root of the phase-lag condition lag(delta_omega) = -pi/2:
    the midpoint of the :func:`core.bisect` bracket from (0, 100*omega3),
    stopped at a width of at most 1e-9 of its high end.

    Independent of the closed forms in :func:`pull_in_range`; serves as
    their oracle.
    """
    if variant.is_modified:
        return math.inf
    _check_pullin_preconditions(params)
    # the lag starts above -pi/2 (omega_c < omega3) and is below it at
    # 100*omega3, where n*atan(100) alone exceeds pi/2
    lo, hi = bisect(lambda dw: not total_phase_lag(params, variant, dw) < -math.pi / 2,
                    0.0, 100.0 * params.omega3, lambda lo, hi: hi - lo <= 1e-9 * hi)
    return 0.5 * (lo + hi)


# --- pull-in time ----------------------------------------------------------

def _pow(x: float, n: int) -> float:
    """``x**n``, or inf where it overflows (float ``**`` raises
    OverflowError there), for :func:`_derived` to refuse."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def _beat_band(params: LoopParams, variant: LoopVariant,
               delta_omega0: float) -> tuple[float, float]:
    """(lock-in range, pull-in range), or RangeError when ``delta_omega0``
    is at or past the pull-in range, or at or below the lock-in range."""
    dw_p = pull_in_range(params, variant)
    if delta_omega0 >= dw_p:
        raise RangeError(f"offset {delta_omega0:g} outside the pull-in range {dw_p:g}")
    dw_l = lock_in_range(params, variant)
    if delta_omega0 <= dw_l:
        raise RangeError(f"offset {delta_omega0:g} inside the lock-in range {dw_l:g}")
    return dw_l, dw_p


def pull_in_time_formula(
    params: LoopParams, variant: LoopVariant, delta_omega0: float
) -> float:
    """Raw variant pull-in-time formula, no fast-acquisition floor.

    Conventional loops use the log form, valid for lock-in < offset <
    pull-in, and raise RangeError outside that interval; modified loops
    use the quadratic-in-offset form.  The sweep theory column uses this
    directly.  DesignError when the formula's divisor, zeta*omega_n^3
    times a constant, or a modified loop's offset^2 is out of the float
    range (:func:`_derived`).
    """
    if delta_omega0 <= 0:
        raise RangeError("delta_omega0 must be > 0")
    coef = _PULL_IN_TIME[variant][2]
    if variant.is_modified:
        return coef * _derived("delta_omega0^2", _pow(delta_omega0, 2)) / _derived(
            "zeta*omega_n^3", params.zeta * _pow(params.omega_n, 3))
    # conventional loops: coef is the beat-asymmetry constant C of
    # averaged_ud, whose straight-line cosine approximation integrates to
    # the closed log form
    dw_l, dw_p = _beat_band(params, variant, delta_omega0)
    pref = dw_p / _derived("2*C*zeta*omega_n^3",
                           2.0 * coef * params.zeta * _pow(params.omega_n, 3))
    return pref * (dw_p * math.log((dw_p - dw_l) / (dw_p - delta_omega0)) - delta_omega0 + dw_l)


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


# --- averaged pull-in model -------------------------------------------------

def averaged_ud(variant: LoopVariant, delta_omega: float, params: LoopParams) -> float:
    """DC component of the PD output during a beat, volts, with the beat
    constant c of ``_PULL_IN_TIME``.

    Conventional loops: c*K0*Kd^2*KH*cos(phi_tot)/delta_omega, whose cosine
    reverses polarity at the pull-in limit.  The modified loops have no
    filter lag in the PD path, hence no cosine and no polarity reversal:
    Kd^2/(4c)*K0*KH/delta_omega, for which the integral down to the
    lock-in range dw_L is :func:`pull_in_time_formula` times
    1 - (dw_L/delta_omega0)^2.  The constants hold for the default PD
    flavors: the sine-shaped COMPLEX_IMAG flavor raises RangeError.
    DesignError when Kd^2 is out of the float range (:func:`_derived`).
    """
    if variant.pd_flavor is PdFlavor.COMPLEX_IMAG:
        raise RangeError("the averaged model takes the default PD flavors only, "
                         f"not {variant.pd_flavor.value}")
    if delta_omega == 0:
        raise RangeError("averaged PD output is singular at zero beat frequency")
    c = _PULL_IN_TIME[variant][2]
    kd_sq = _derived("kd^2", _pow(params.kd, 2))
    if variant.is_modified:
        return kd_sq / (4.0 * c) * params.k0 * params.k_h / delta_omega
    cos_tot = math.cos(total_phase_lag(params, variant, abs(delta_omega)))
    return c * params.k0 * kd_sq * params.k_h * cos_tot / delta_omega


def averaged_pull_in_time_numeric(params: LoopParams, variant: LoopVariant,
                                  delta_omega0: float) -> float:
    """Integrate the averaged ODE from the initial offset down to the
    lock-in range, without the straight-line cosine approximation.

    Fourth-order fixed-step integration in the time domain would stall
    near the pull-in limit, so integrate the separated form
    dt = tau1*d(dw)/(K0*ud(dw)) (:func:`averaged_ud`) over dw with
    Simpson's rule (20,000 intervals) instead.  RangeError outside the
    band between the lock-in and pull-in ranges, as the conventional
    loops' :func:`pull_in_time_formula` raises it.  DesignError when
    omega_n, delta_omega0, the lock-in range, the slope at a node or the
    time itself is out of the float range (:func:`_derived`): gains that
    underflow omega_n, or zeta*omega_n, to 0.0 leave no lock-in range to
    integrate down to (a zero beat at the first node).
    """
    _derived("omega_n", params.omega_n)
    band = _beat_band(params, variant, _derived("delta_omega0", delta_omega0))
    dw_l = _derived("lock-in range", band[0])
    n_steps = 20000
    h = (delta_omega0 - dw_l) / n_steps
    total = 0.0
    for k in range(n_steps + 1):
        dw = dw_l + k * h
        w = 1.0 if k in (0, n_steps) else (4.0 if k % 2 else 2.0)
        rate = params.k0 * averaged_ud(variant, dw, params) / params.tau1
        total += w / _derived("-d(delta_omega)/dt", rate)
    return _derived("pull_in_time_numeric", total * h / 3.0)


# --- hold-in ---------------------------------------------------------------

@dataclass(frozen=True)
class HoldInResult:
    """Hold-in ranges as intervals of |delta_omega0|, with provenance;
    ``dataclasses.asdict`` gives its JSON object."""

    intervals: tuple[tuple[float, float], ...]
    unbounded: bool
    formula_id: str
    case: str = ""

    def contains(self, delta_omega0: float) -> bool:
        v = abs(delta_omega0)
        if self.unbounded:
            return True
        return any(lo < v < hi for lo, hi in self.intervals)


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
    Raises DesignError when a derived constant leaves the float range.
    """
    for name, value in zip(("k0", "kd", "tau1", "tau2", "omega3"),
                           (k0, kd, tau1, tau2, omega3)):
        check_real(value, name)
    if not (tau1 > tau2 > 0):
        raise DesignError("lead-lag requires tau1 > tau2 > 0")
    if omega3 <= 0 or k0 <= 0 or kd <= 0:
        raise DesignError("omega3, k0, kd must be > 0")
    cap = _derived("cap", k0 * kd / 2.0)
    if tau1 * tau2 == 0.0:
        raise DesignError(f"derived constant tau1*tau2 underflows to 0 ({tau1!r} * {tau2!r})")
    omega3_star = (tau1 - tau2) / (tau1 * tau2)
    inner = 0.0
    if omega3 >= omega3_star:
        case = "wide-lpf"
    else:
        # den > 0 below omega3_star, but for rounding where omega3 sits on it
        den = tau1 - tau2 - omega3 * tau1 * tau2
        cos_max = (2.0 / (k0 * kd)) * (1.0 + omega3 * tau1) / den if den else math.nan
        if not cos_max >= -1.0:
            raise DesignError(f"derived constant cos_max = {cos_max!r} is out of range: "
                              "it must be at least -1")
        if cos_max >= 1.0:
            case = "narrow-lpf-full"
        else:
            case = "narrow-lpf-split"
            inner = _derived("inner", cap * math.sqrt(1.0 - cos_max**2))
    return HoldInResult(((inner, cap),), unbounded=False,
                        formula_id="leadlag-routh-hurwitz", case=case)


# --- prediction report ------------------------------------------------------

def predict(params: LoopParams, variant: LoopVariant) -> dict:
    """Acquisition report for one designed loop, the dict ``design`` and
    ``predict`` print: the lock-in range and time, the pull-in range
    (``"unbounded"`` for the modified loops) beside its bisection oracle,
    the hold-in range, and each value's formula id."""
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
    if dw_l > dw_p:
        raise RangeError("lock-in range exceeds pull-in range; degenerate design")
    _, lock_in_id, _, pull_in_time_id = _PULL_IN_TIME[variant]
    return {
        "variant": variant.tag.value,
        "pd_flavor": variant.pd_flavor.value,
        "delta_omega_l": dw_l,
        "lock_in_hz": dw_l / TWO_PI,
        "t_l": t_l,
        "delta_omega_p": "unbounded" if math.isinf(dw_p) else dw_p,
        "delta_omega_p_numeric": dw_p_num,
        "pull_in_hz": "unbounded" if math.isinf(dw_p) else dw_p / TWO_PI,
        "hold_in": asdict(hold),
        "formula_ids": {
            "delta_omega_l": lock_in_id,
            "t_l": "lock-time:2pi/omega_n",
            "delta_omega_p": pullin_tag,
            "t_p": pull_in_time_id,
            "hold_in": hold.formula_id,
        },
    }
