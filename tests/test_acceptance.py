"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on passing runs too).  Sub-checks that cannot be met by a faithful
implementation are still asserted at the stated tolerance and allowed to
fail; the failure detail names the offending rows.  A printed value that
is shown to contradict the stated constants is not used as a target: the
test keeps it, asserts that it is irreproducible, and checks the value
derived from the stated constants instead.
"""

import math
import time

import numpy as np
import pytest

from costas_lab import (
    CONVENTIONAL_BPSK,
    CONVENTIONAL_QPSK,
    MODIFIED_BPSK,
    MODIFIED_QPSK,
    DesignSpec,
    LoopParams,
    design,
    hold_in_leadlag,
    lock_in_range,
    lock_time,
    pull_in_range,
    pull_in_range_numeric,
    pull_in_time,
    pull_in_time_formula,
)
from costas_lab.analysis import leadlag_char_poly
from costas_lab.baseband import ClassicPhaseModel, classic_rhs
from costas_lab.detectors import PdCharacteristic, phi_bpsk, phi_qpsk
from costas_lab.ode import (
    IntegratorConfig,
    PITFALL_H_LIST,
    PITFALL_STATE0,
    PITFALL_T_END,
    integrate,
    phase_portrait,
    pitfall_example_model,
    step_sensitivity_probe,
)
from costas_lab.signal_sim import (
    DigitalLoop,
    ModulatedSource,
    _discrete_lpf,
    _discrete_pi,
    demod_ber,
    measure_pull_in_range,
    run_loop,
)

TWO_PI = 2.0 * math.pi
OMEGA0 = TWO_PI * 400e3

VARIANTS = {
    "bpsk": CONVENTIONAL_BPSK,
    "qpsk": CONVENTIONAL_QPSK,
    "mod_bpsk": MODIFIED_BPSK,
    "mod_qpsk": MODIFIED_QPSK,
}

# the reference designs the comparison tables were produced with
REFERENCE_PARAMS = {
    "bpsk": LoopParams(OMEGA0, OMEGA0, 1262000.0, 1.0,
                       20e-6, 4e-6, omega3=1256000.0),
    "qpsk": LoopParams(OMEGA0, OMEGA0, 631000.0, 2.0,
                       20e-6, 4e-6, omega3=1256000.0),
    "mod_bpsk": LoopParams(OMEGA0, OMEGA0, 1262000.0, 1.0,
                           20e-6, 4e-6),
    "mod_qpsk": LoopParams(OMEGA0, OMEGA0, 1262000.0, 1.0,
                           20e-6, 4e-6),
}

# theory tables: (offset Hz, printed value us)
THEORY_TABLES = {
    "bpsk": [(50e3, 33.0), (70e3, 78.0), (100e3, 204.0)],
    "qpsk": [(40e3, 14.0), (50e3, 37.0), (60e3, 86.0)],
    "mod_bpsk": [(50e3, 2.5), (100e3, 10.0), (200e3, 40.0)],
    "mod_qpsk": [(50e3, 20.0), (100e3, 81.0), (200e3, 327.0)],
}

# Printed theory rows that contradict the stated constants, keyed by
# (table, offset Hz), with the log form's value at those constants in us:
# K0 = 631000, Kd = 2, tau1 = 20 us, tau2 = 4 us, omega3 = 1256000 rad/s,
# lock-in 177483 rad/s, C = 0.373^2, and the phase-lag pull-in limit
# 472506 rad/s (75.2 kHz; closed form and bisection oracle agree).
# The printed QPSK ratios T50/T40 and T60/T50 do not depend on C or
# zeta*omega_n^3; they pin lock-in = 1.42*zeta*omega_n (the sqrt2 factor)
# and pull-in ~ 2pi*69.4 kHz, at which the log form fits all three printed
# rows within 0.3% with C within 4% of 0.373^2.  The printed column thus
# used a pull-in range the source never states; even at its printed
# ~73 kHz the 60 kHz row gives 76.1 us, 11% below 86.
STATED_CONSTANT_THEORY = {("qpsk", 50e3): 33.6, ("qpsk", 60e3): 71.1}

# simulation tables: (offset Hz, reference value us); sampling and the
# pre-envelope realization per table are documented in the README
SIM_TABLES = {
    "bpsk": dict(rows=[(50e3, 30.0), (70e3, 85.0), (100e3, 200.0)],
                 f_samp=3.2e6, hilbert="ideal", duration=1.5e-3),
    "qpsk": dict(rows=[(40e3, 35.0), (50e3, 40.0), (60e3, 70.0)],
                 f_samp=3.2e6, hilbert="ideal", duration=1.5e-3),
    "mod_bpsk": dict(rows=[(50e3, 20.0), (100e3, 20.0), (200e3, 50.0)],
                     f_samp=12.8e6, hilbert="ideal", duration=1.2e-3),
    "mod_qpsk": dict(rows=[(50e3, 20.0), (100e3, 80.0), (200e3, 300.0)],
                     f_samp=12.8e6, hilbert="delay", duration=2.2e-3),
}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def designs():
    return {
        name: design(DesignSpec(f0=400e3, f_symbol=100e3, variant=v))
        for name, v in VARIANTS.items()
    }


def test_criterion_1_design_reproduction(designs):
    failures = []
    b = designs["bpsk"]
    if b.tau2 != 4e-6:
        failures.append(f"tau2 {b.tau2} != 4 us")
    if abs(b.omega3 - 1256000.0) / 1256000.0 > 1e-3:
        failures.append(f"omega3 {b.omega3:.0f}")
    if abs(b.k0 - 1262000.0) / 1262000.0 > 0.01:
        failures.append(f"bpsk k0 {b.k0:.0f}")
    if abs(designs["qpsk"].k0 - 631000.0) / 631000.0 > 0.01:
        failures.append(f"qpsk k0 {designs['qpsk'].k0:.0f}")
    if abs(b.omega_n - 251200.0) / 251200.0 > 0.005:
        failures.append(f"omega_n {b.omega_n:.0f}")
    if abs(b.zeta - 0.5) / 0.5 > 0.005:
        failures.append(f"zeta {b.zeta}")
    ok = report("1 [design reproduction]", not failures, failures or
                f"tau2=4us k0={b.k0:.0f}/{designs['qpsk'].k0:.0f} "
                f"omega_n={b.omega_n:.0f} zeta={b.zeta:.4f}")
    assert ok, failures


def test_criterion_2_lock_in_formulas(designs):
    failures = []
    expected = {"bpsk": 1.0, "qpsk": math.sqrt(2.0),
                "mod_bpsk": math.pi, "mod_qpsk": math.pi / 2.0}
    for name, factor in expected.items():
        p = designs[name]
        ratio = lock_in_range(p, VARIANTS[name]) / (p.zeta * p.omega_n)
        if abs(ratio - factor) > 1e-12 * factor:
            failures.append(f"{name} ratio {ratio}")
        tl = lock_time(p)
        if abs(tl - TWO_PI / p.omega_n) > 1e-12 * tl:
            failures.append(f"{name} t_l {tl}")
    ok = report("2 [lock-in formulas]", not failures,
                failures or "ratios {1, sqrt2, pi, pi/2} and T_L = 2pi/omega_n exact")
    assert ok, failures


def test_criterion_3_pull_in_time_tables(designs, tmp_path):
    failures, values, irreproducible = [], {}, []
    t0 = time.time()
    for name, rows in THEORY_TABLES.items():
        p = designs[name]
        got = []
        for f_off, printed_us in rows:
            t_us = pull_in_time_formula(p, VARIANTS[name], TWO_PI * f_off) * 1e6
            got.append(round(t_us, 1))
            expected_us = STATED_CONSTANT_THEORY.get((name, f_off), printed_us)
            if abs(t_us - expected_us) / expected_us > 0.05:
                failures.append(
                    f"{name} @{f_off/1e3:.0f}kHz: {t_us:.1f} vs {expected_us} us"
                )
            if expected_us != printed_us:
                irreproducible.append(
                    f"{name} @{f_off/1e3:.0f}kHz {t_us:.1f} us (stated constants "
                    f"{expected_us}, printed {printed_us})"
                )
                if abs(t_us - printed_us) / printed_us <= 0.05:
                    failures.append(
                        f"{name} @{f_off/1e3:.0f}kHz: {t_us:.1f} us unexpectedly "
                        f"matches the printed {printed_us} us"
                    )
        values[name] = got
    elapsed = time.time() - t0

    # the sweep subcommand's theory column must agree with the formulas
    import json as _json

    from costas_lab.cli import main as cli_main

    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(_json.dumps({
        "schema": 1, "fidelity": "signal", "variant": "bpsk",
        "f0": 400e3, "f_symbol": 100e3, "f_samp": 3.2e6, "duration": 3e-4,
    }))
    rc = cli_main(["sweep", "--config", str(cfg_path),
                   "--offsets", "50e3,70e3,100e3", "-o", str(tmp_path / "out")])
    if rc != 0:
        failures.append(f"sweep subcommand exited {rc}")
    else:
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        for line, (f_off, _) in zip(lines, THEORY_TABLES["bpsk"]):
            theory_s = float(line.split(",")[1])
            direct = pull_in_time_formula(designs["bpsk"], CONVENTIONAL_BPSK,
                                          TWO_PI * f_off)
            if abs(theory_s - direct) > 1e-9 * direct:  # 12-digit CSV precision
                failures.append(f"sweep theory column differs at {f_off:.0f} Hz")

    ok = report("3 [pull-in time tables, theory +-5%]", not failures,
                f"{values}; printed rows irreproducible: {irreproducible} "
                f"({elapsed:.2f}s)" if not failures else failures)
    assert ok, failures


def test_criterion_4_simulation_vs_theory():
    failures, values = [], {}
    for name, cfg in SIM_TABLES.items():
        t0 = time.time()
        params = REFERENCE_PARAMS[name]
        source = ModulatedSource(VARIANTS[name], 400e3, 100e3)
        got = []
        for f_off, reference_us in cfg["rows"]:
            loop = DigitalLoop(params.with_offset(TWO_PI * f_off),
                               cfg["f_samp"], hilbert_mode=cfg["hilbert"])
            r = run_loop(source, loop, cfg["duration"])
            t_us = r.pull_in_time * 1e6 if r.locked else math.inf
            got.append(round(t_us, 1))
            band = max(0.3 * reference_us, 15.0)
            if abs(t_us - reference_us) > band:
                failures.append(
                    f"{name} @{f_off/1e3:.0f}kHz: {t_us:.1f} vs "
                    f"{reference_us} +-{band:.0f} us"
                )
        elapsed = time.time() - t0
        values[name] = got
        if elapsed > 60.0:
            failures.append(f"{name} table took {elapsed:.0f}s > 60s")
    ok = report("4 [simulation vs theory, +-30% or +-15us]", not failures,
                f"{values}" if not failures else failures)
    assert ok, failures


def test_criterion_5_pull_in_range():
    failures = []

    # measured pull-in by bisection, budget 10x the predicted pull-in time
    def budget_rule(params, variant):
        dwp = pull_in_range(params, variant)

        def budget(delta_f):
            dw = min(TWO_PI * delta_f, 0.9 * dwp)
            return 10.0 * pull_in_time(params, variant, dw)

        return budget

    measured = {}
    for name, bracket, target in (
        ("bpsk", (110e3, 160e3), (120e3, 150e3)),
        ("qpsk", (45e3, 90e3), (55e3, 70e3)),
    ):
        params = REFERENCE_PARAMS[name]
        source = ModulatedSource(VARIANTS[name], 400e3, 100e3)
        loop = DigitalLoop(params, 3.2e6)
        f = measure_pull_in_range(source, loop, bracket,
                                  budget_rule(params, VARIANTS[name]))
        measured[name] = round(f / 1e3, 1)
        if not target[0] <= f <= target[1]:
            failures.append(
                f"{name} measured {f/1e3:.1f} kHz outside "
                f"[{target[0]/1e3:.0f}, {target[1]/1e3:.0f}]"
            )

    # closed form vs transcendental oracle on random draws
    rng = np.random.default_rng(0xFEED)
    worst = 0.0
    for _ in range(100):
        omega_c = 10 ** rng.uniform(4, 6)
        omega3 = omega_c * rng.uniform(2.0, 50.0)
        p = LoopParams(0, 0, 1e6, 1.0, 1e-4, 1.0 / omega_c, omega3=omega3)
        for variant in (CONVENTIONAL_BPSK, CONVENTIONAL_QPSK):
            c = pull_in_range(p, variant)
            n = pull_in_range_numeric(p, variant)
            worst = max(worst, abs(n - c) / c)
    if worst > 1e-6:
        failures.append(f"closed-form vs oracle disagree: {worst:.2e}")

    # the printed 1'086'440 is the closed form at omega_c = 316228, not 1/tau2
    p = REFERENCE_PARAMS["bpsk"]
    oracle = pull_in_range_numeric(p, CONVENTIONAL_BPSK)
    closed = pull_in_range(p, CONVENTIONAL_BPSK)
    if abs(oracle - closed) > 1.0:
        failures.append(f"oracle {oracle:.1f} vs closed {closed:.1f} > 1 rad/s")
    if abs(oracle - 1124000.0) > 1000.0:
        failures.append(f"oracle root {oracle:.0f} not at 1'124'000")
    if abs(oracle - 1086440.0) < 30000.0:
        failures.append("oracle unexpectedly matches the quoted 1'086'440")

    # modified loops lock at every tested offset up to 10x the lock-in range
    ladder_fs = 32e6  # resolves the PD beat waveform at the largest offset
    for name in ("mod_bpsk", "mod_qpsk"):
        params = REFERENCE_PARAMS[name]
        variant = VARIANTS[name]
        dwl = lock_in_range(params, variant)
        source = ModulatedSource(variant, 400e3, 100e3)
        for mult in (1, 2, 4, 8, 10):
            dw = mult * dwl
            b = max(10.0 * pull_in_time(params, variant, dw), 5.0 * lock_time(params))
            loop = DigitalLoop(params.with_offset(dw), ladder_fs, hilbert_mode="ideal")
            r = run_loop(source, loop, b)
            if not r.locked:
                failures.append(f"{name} failed at {mult}x lock-in "
                                f"({dw/TWO_PI/1e3:.0f} kHz)")

    ok = report("5 [pull-in range]", not failures,
                f"measured {measured} kHz, oracle@ref {oracle:.0f} rad/s, "
                "modified ladder locked to 10x lock-in"
                if not failures else failures)
    assert ok, failures


def test_criterion_6_hold_in_leadlag():
    rng = np.random.default_rng(0xB0A7)
    n = 1000
    disagreements = 0
    boundary_misses = []
    for _ in range(n):
        k0 = 10 ** rng.uniform(2, 7)
        kd = rng.uniform(0.5, 4.0)
        tau1 = 10 ** rng.uniform(-5, -2)
        tau2 = tau1 * rng.uniform(0.02, 0.9)
        omega3_star = (tau1 - tau2) / (tau1 * tau2)
        omega3 = omega3_star * 10 ** rng.uniform(-3, 2)
        dw = rng.uniform(0.0, 0.55) * k0 * kd
        member = hold_in_leadlag(k0, kd, tau1, tau2, omega3).contains(dw)
        s = 2.0 * dw / (k0 * kd)
        if s >= 1.0:
            oracle = False
        else:
            poly = leadlag_char_poly(k0, kd, tau1, tau2, omega3,
                                     math.sqrt(1.0 - s * s))
            oracle = bool(np.all(np.roots(list(reversed(poly))).real < 0))
        if member != oracle:
            disagreements += 1
            hold = hold_in_leadlag(k0, kd, tau1, tau2, omega3)
            bounds = [b for iv in hold.intervals for b in iv] + [k0 * kd / 2]
            dist = min(abs(dw - b) / (k0 * kd) for b in bounds)
            if dist > 1e-6:
                boundary_misses.append(dist)
    ok = disagreements <= 0.005 * n and not boundary_misses
    ok = report("6 [hold-in vs eigenvalue oracle]", ok,
                f"{disagreements}/{n} disagreements, all at boundaries"
                if ok else f"{disagreements} disagreements, "
                f"off-boundary: {boundary_misses}")
    assert ok


def test_criterion_7_numerical_pitfall():
    failures = []
    model = pitfall_example_model()
    probe = step_sensitivity_probe(model, PITFALL_STATE0, PITFALL_H_LIST,
                                   PITFALL_T_END)
    if not probe.locked_at(2e-2):
        failures.append("h=2e-2 did not report lock")
    for h in (1e-2, 1e-3):
        if probe.locked_at(h):
            failures.append(f"h={h} reported lock")

    xeq = model.equilibrium_x()
    states = [(xeq, 0.3), (xeq, -0.25), PITFALL_STATE0, (0.0125, 0.4)]
    classified = []
    phase_portrait(model, states, 15.0, classified.append)
    labels = {c.label for c in classified}
    if "eq" not in labels:
        failures.append("no equilibrium-convergent class")
    if "cycle" not in labels:
        failures.append("no cycle-convergent class")
    ok = report("7 [numerical-pitfall reproduction]", not failures,
                "lock at h=2e-2, no-lock at {1e-2, 1e-3}; portrait has both classes"
                if not failures else failures)
    assert ok, failures


def test_criterion_8_property_suites(designs, pd_sample):
    failures = []
    rng = np.random.default_rng(0x8888)

    # PD periodicity, odd symmetry, small-angle gain
    th = rng.uniform(-20, 20, 10_000)
    pb = max(abs(phi_bpsk(t + math.pi) - phi_bpsk(t)) for t in th)
    pq = max(abs(phi_qpsk(t + math.pi / 2) - phi_qpsk(t)) for t in th)
    if pb > 1e-8 or pq > 1e-8:
        failures.append(f"PD periodicity residuals {pb:.1e}, {pq:.1e}")
    quarter = math.pi / 4
    clear = th[np.abs((th - quarter) % (math.pi / 2) - quarter) > 1e-3]
    po = max(
        max(abs(phi_bpsk(-t) + phi_bpsk(t)), abs(phi_qpsk(-t) + phi_qpsk(t)))
        for t in clear
    )
    if po > 1e-8:
        failures.append(f"PD odd-symmetry residual {po:.1e}")
    eps = 1e-4
    um_q = (1 + 1j) * np.exp(1j * eps)      # the QPSK lock point (1 + j), turned by eps
    # the modified loops' phase PDs: one sample of the built loop at NCO
    # phase 0, which hands the PD the envelope it is given
    gains = {
        "bpsk": (phi_bpsk(eps) / eps, 1.0),
        "qpsk": (phi_qpsk(eps) / eps, 2.0),
        "mod": (pd_sample(MODIFIED_BPSK, math.cos(eps), math.sin(eps))[0] / eps, 1.0),
        "mod_q": (pd_sample(MODIFIED_QPSK, float(um_q.real), float(um_q.imag))[0] / eps, 1.0),
    }
    for name, (g, want) in gains.items():
        if abs(g - want) / want > 1e-6:
            failures.append(f"small-angle gain {name}: {g}")

    # the loop's two bilinear maps on random corners: the LPF pole lies
    # inside the unit circle and the LPF response at the corner is the
    # analog 1/(1 + j); the PI (tau2 = 1/w) keeps the analog phase -pi/4
    # at its corner
    t_samp = 1.0 / 3.2e6
    for _ in range(1000):
        w = 10 ** rng.uniform(3.5, 6.2)
        kind = rng.integers(0, 2)
        z = np.exp(-1j * w * t_samp)  # z^-1 at the corner
        if kind == 0:
            b, a1 = _discrete_lpf(w, t_samp)
            if abs(a1) >= 1.0:
                failures.append(f"discrete pole on/outside unit circle for w={w:.0f}")
                break
            if abs((b + b * z) / (1.0 + a1 * z) - 1.0 / (1.0 + 1j)) > 1e-9:
                failures.append(f"prewarp fixed point broken at w={w:.0f}")
                break
        else:
            b0, b1 = _discrete_pi(20e-6, 1.0 / w, t_samp)
            if abs(np.angle((b0 + b1 * z) / (1.0 - z)) + math.pi / 4) > 1e-9:
                failures.append(f"PI corner phase off -pi/4 at w={w:.0f}")
                break

    # RK4 order-4 convergence factor
    p = designs["bpsk"].with_offset(TWO_PI * 30e3)
    model = ClassicPhaseModel(p, PdCharacteristic(CONVENTIONAL_BPSK, 1.0))

    def rhs(t, y):
        return np.array(classic_rhs(model, t, (y[0], y[1])))

    t_end = 50e-6
    ref = integrate(rhs, (0.0, 0.0),
                    IntegratorConfig(t_end=t_end, method="rk45",
                                     rtol=1e-12, atol=1e-14)).y[-1, 1]

    def rk4_err(h):
        traj = integrate(rhs, (0.0, 0.0),
                         IntegratorConfig(t_end=t_end, method="rk4", h=h))
        return abs(traj.y[-1, 1] - ref)

    factor = rk4_err(1e-6) / rk4_err(5e-7)
    if not 12.0 <= factor <= 20.0:
        failures.append(f"RK4 convergence factor {factor:.1f} outside [12, 20]")

    # finite-difference Jacobian at the lock point
    h = 1e-6
    jac = np.zeros((2, 2))
    for j, e in enumerate(np.eye(2)):
        plus = np.array(classic_rhs(model, 0.0, (h * e[0], h * e[1])))
        minus = np.array(classic_rhs(model, 0.0, (-h * e[0], -h * e[1])))
        jac[:, j] = (plus - minus) / (2 * h)
    analytic = np.array([[0.0, p.kd],
                         [-p.k0 / p.tau1, -p.k0 * p.kd * p.tau2 / p.tau1]])
    if np.max(np.abs(jac - analytic)) / np.max(np.abs(analytic)) > 1e-5:
        failures.append("finite-difference Jacobian mismatch")

    # zero demodulation errors on locked noiseless runs, all variants
    demod_cfg = {
        "bpsk": (3.2e6, "ideal", 50e3, 1.5e-3),
        "qpsk": (3.2e6, "ideal", 40e3, 1.5e-3),
        "mod_bpsk": (12.8e6, "ideal", 100e3, 1.0e-3),
        "mod_qpsk": (12.8e6, "ideal", 50e3, 1.0e-3),
    }
    for name, (fs, hmode, f_off, dur) in demod_cfg.items():
        source = ModulatedSource(VARIANTS[name], 400e3, 100e3)
        loop = DigitalLoop(REFERENCE_PARAMS[name].with_offset(TWO_PI * f_off),
                           fs, hilbert_mode=hmode)
        r = run_loop(source, loop, dur, signals=True)
        if not r.locked:
            failures.append(f"{name} demod run failed to lock")
        elif demod_ber(r, source) != 0.0:
            failures.append(f"{name} demod errors on a noiseless locked run")

    ok = report("8 [property suites]", not failures,
                f"PD/bilinear/RK4(factor {factor:.1f})/Jacobian/demod all clean"
                if not failures else failures)
    assert ok, failures
