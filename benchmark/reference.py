"""Computations the benchmark checks the program's outputs against.

Each is written from the documented definition, apart from the code it
checks: the LFSR from its taps, the pull-in limit by bisection of the
phase-lag condition, the pull-in time from the log form, and the lock
rule and cycle-slip count from the recorded phase error and NCO
frequency.
"""

from __future__ import annotations

import math
import re

import numpy as np

# relative slack on the lock-rule thresholds: a window whose average lies
# within this share of a threshold may go either way under rounding
LOCK_SLACK = 1e-6
QPSK_BEAT_CONSTANT = 0.373**2


def lfsr_symbols(seed: int, n: int) -> np.ndarray:
    """+-1 symbols of the 32-bit LFSR with taps 32, 22, 2, 1.

    Bit x[k+1] = x[k] ^ x[k-1] ^ x[k-21] ^ x[k-31], where the seed's bit j
    holds x[-j]; symbol k is +1 when x[k+1] is set.
    """
    bits = [(seed >> j) & 1 for j in range(31, -1, -1)]   # x[-31] .. x[0]
    for _ in range(n):
        bits.append(bits[-1] ^ bits[-2] ^ bits[-22] ^ bits[-32])
    return np.where(np.array(bits[32:]) == 1, 1.0, -1.0)


def gains(k0: float, kd: float, tau1: float, tau2: float) -> tuple[float, float]:
    """(omega_n, zeta) of the PI-filter loop."""
    omega_n = math.sqrt(k0 * kd / tau1)
    return omega_n, omega_n * tau2 / 2.0


def pull_in_limit(omega3: float, omega_c: float, n: int) -> float:
    """Root of n*atan(dw/omega3) = atan(n*dw/omega_c), by bisection."""
    def f(dw):
        return n * math.atan(dw / omega3) - math.atan(n * dw / omega_c)

    lo, hi = 0.0, 100.0 * omega3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def conventional_pull_in_time(p, qpsk: bool, dw0: float) -> tuple[float, float, float]:
    """(pull-in time, lock-in range, pull-in range) of a conventional loop.

    T = dwP/(2*C*zeta*omega_n^3) * (dwP*ln((dwP - dwL)/(dwP - dw0)) - dw0 + dwL)
    with C = 1/pi^2 (BPSK) or 0.373^2 (QPSK).
    """
    omega_n, zeta = gains(p.k0, p.kd, p.tau1, p.tau2)
    dw_l = (math.sqrt(2.0) if qpsk else 1.0) * zeta * omega_n
    dw_p = pull_in_limit(p.omega3, 1.0 / p.tau2, 4 if qpsk else 2)
    c = QPSK_BEAT_CONSTANT if qpsk else 1.0 / math.pi**2
    t = dw_p / (2.0 * c * zeta * omega_n**3) * (
        dw_p * math.log((dw_p - dw_l) / (dw_p - dw0)) - dw0 + dw_l)
    return t, dw_l, dw_p


def cycle_slips(theta_e: np.ndarray, period: float) -> int:
    """Crossings of the cell boundaries (k + 1/2)*period."""
    cell = np.floor(theta_e / period + 0.5)
    return int(np.sum(np.abs(cell[1:] - cell[:-1])))


def nco_residual(theta_e, omega2, omega1: float, T: float) -> np.ndarray:
    """theta_e[k+1] - theta_e[k] - T*(omega1 - omega2[k])."""
    return np.diff(theta_e) - T * (omega1 - omega2[:-1])


def lock_windows(theta_e, omega2, omega1, T, period, omega_n, slack):
    """Per-window verdicts of the documented lock rule, thresholds scaled by 1+slack.

    Window k averages samples [k, k+w) with w = round(4*2pi/omega_n / T),
    at least 10.  It passes when the mean of omega1 - omega2 is within
    0.01*omega_n and the mean distance of theta_e to the nearest lock point
    is below 0.1 rad.  Returns None when the run is too short for a window.
    """
    w = max(10, int(round(4.0 * 2.0 * math.pi / omega_n / T)))
    n = len(theta_e)
    if n <= w + 1:
        return None
    def window_means(x):
        c = np.concatenate([[0.0], np.cumsum(x)])
        return (c[w:n] - c[: n - w]) / w

    freq = np.abs(window_means(omega1 - omega2))
    dist = np.abs(theta_e - period * np.round(theta_e / period))
    phase = window_means(dist)
    return (freq < 0.01 * omega_n * (1.0 + slack)) & (phase < 0.1 * (1.0 + slack))


def check_lock(locked, k_lock, theta_e, omega2, omega1, T, period, omega_n) -> list[str]:
    """Compare a lock verdict and lock sample with the recomputed rule.

    Each side gets the benefit of rounding: a locked run must pass the
    loosened rule from k_lock to the end and fail the tightened rule just
    before; an unlocked run must fail the tightened rule at the last window.
    """
    loose = lock_windows(theta_e, omega2, omega1, T, period, omega_n, LOCK_SLACK)
    tight = lock_windows(theta_e, omega2, omega1, T, period, omega_n, -LOCK_SLACK)
    if loose is None:
        return ["locked without a full window"] if locked else []
    if not locked:
        return ["unlocked run meets the lock rule at the end"] if tight[-1] else []
    problems = []
    if not k_lock < len(loose) or not loose[k_lock:].all():
        problems.append(f"locked run breaks the lock rule after sample {k_lock}")
    if k_lock > 0 and tight[k_lock - 1:].all():
        problems.append(f"lock rule already held before sample {k_lock}")
    return problems


_FIELD = rb"-?\d\.\d{11}e[+-]\d{2,3}"
TIMESERIES_HEADER = b"t,theta_e,u_d,u_f,omega2,I2,Q2\n"
TIMESERIES_ROW = re.compile(b",".join([_FIELD] * 7) + b"\n")


def read_timeseries(path) -> tuple[np.ndarray, list[str]]:
    """Columns of timeseries.csv, after checking its header, fields and LF endings."""
    problems = []
    with open(path, "rb") as fh:
        if fh.readline() != TIMESERIES_HEADER:
            problems.append("timeseries.csv header")
        bad = sum(1 for line in fh if not TIMESERIES_ROW.fullmatch(line))
    if bad:
        problems.append(f"timeseries.csv: {bad} rows not seven %.11e fields ending in LF")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), problems
