"""The benchmark's workloads: inputs made from the seed, operations, checks.

A workload is a fixed list of operations.  ``Op.run`` is the timed call
into the program; ``Op.after`` inspects its output outside the timed
section.  The first output of each operation is checked in full against
the computations in ``reference``; every later output of the same
operation must equal the first.  Functions are looked up on their module
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from costas_lab import analysis, cli, ode, signal_sim
from costas_lab.core import LoopVariant

import reference as ref

TWO_PI = 2.0 * math.pi
F0, F_SYMBOL = 400e3, 100e3


class OpFailed(RuntimeError):
    """The program reported failure (a non-zero CLI exit code)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    after: Callable[[object], None]


def run_cli(argv: list[str]) -> int:
    """``costas-lab <argv>`` in process, with its stdout line discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"costas-lab {argv[0]} exited {rc}")
    return rc


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def canonical_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.rng = np.random.default_rng(seed & (2**64 - 1))
        self.tmp = tmp
        self.problems: list[str] = []
        self.ops: list[Op] = []
        self._first: dict[str, object] = {}
        self._calls = 0

    def carrier(self) -> tuple[int, float]:
        """A PRBS seed whose two data streams both have nonzero LFSR states,
        and a carrier phase."""
        seed = int(self.rng.integers(1, 2**32))
        if seed == 0x9E3779B9:
            seed += 1
        return seed, float(self.rng.uniform(0.0, TWO_PI))

    def first_time(self, key: str, digest) -> bool:
        """True for the first output of ``key``; later ones must equal it."""
        if key not in self._first:
            self._first[key] = digest
            return True
        if self._first[key] != digest:
            self.problem(key, "output differs from its first run")
        return False

    def problem(self, key: str, text: str):
        self.problems.append(f"{key}: {text}")

    def cli_op(self, key, command, config, check, artifacts) -> Op:
        """``costas-lab <command>`` into a fresh directory; outside the timed
        call, hash ``artifacts``, check the first output and delete the directory."""
        path = self.tmp / f"{key}.json"
        path.write_text(json.dumps(config))

        def run():
            self._calls += 1
            out = self.tmp / f"{key}-{self._calls}"
            run_cli([command, "--config", str(path), "-o", str(out)])
            return out

        def after(out: Path):
            try:
                digest = tuple(sha256(out / a) for a in artifacts)
                if self.first_time(key, digest):
                    check(key, out)
            finally:
                shutil.rmtree(out)

        return Op(key, run, after)

    def warm_up(self):
        out = self.ops[0].run()
        if isinstance(out, Path):
            shutil.rmtree(out)

    def finish(self):
        """Checks that need the whole run."""


# --- acquire_sweep ------------------------------------------------------------

VARIANTS = ("bpsk", "qpsk", "mod_bpsk", "mod_qpsk")
# sampling and pre-envelope realization as the acceptance tests pin them:
# 8 samples per carrier cycle for the conventional loops, 32 for the modified
SWEEPS = {
    "bpsk": dict(f_samp=3.2e6, hilbert="delay", duration=1.5e-3,
                 offsets=(40e3, 55e3, 70e3, 85e3, 100e3, 115e3)),
    "qpsk": dict(f_samp=3.2e6, hilbert="delay", duration=1.5e-3,
                 offsets=(35e3, 40e3, 45e3, 50e3, 55e3, 60e3)),
    "mod_bpsk": dict(f_samp=12.8e6, hilbert="ideal", duration=1.2e-3,
                     offsets=(50e3, 100e3, 150e3, 200e3)),
    "mod_qpsk": dict(f_samp=12.8e6, hilbert="delay", duration=2.2e-3,
                     offsets=(50e3, 100e3, 150e3, 200e3)),
}
# bracket widths of 2^7 resolutions: bisection ends on a locking offset f
# with a failing f + resolution.  Both ends hold on every seed tried: QPSK
# still locks at 110-118 kHz on some seeds, hence its high end of 158 kHz.
SEARCHES = {"bpsk": (60e3, 188e3), "qpsk": (30e3, 158e3)}
SEARCH_BUDGET = 3e-3
SEARCH_RESOLUTION = 1e3


class AcquireSweep(Workload):
    name = "acquire_sweep"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.sources, self.designs, self.formula = {}, {}, {}
        for v in VARIANTS:
            variant = LoopVariant.from_name(v)
            prbs_seed, phase = self.carrier()
            self.sources[v] = signal_sim.ModulatedSource(
                variant, F0, F_SYMBOL, prbs_seed=prbs_seed, theta1_0=phase)
            self.designs[v] = analysis.design(analysis.DesignSpec(F0, F_SYMBOL, variant))
        for v, sweep in SWEEPS.items():
            for f in sweep["offsets"]:
                key = f"{v}@{f / 1e3:g}kHz"
                self.ops.append(Op(key, self._row_run(v, f), self._row_after(key, v, f)))
        for v, bracket in SEARCHES.items():
            key = f"search.{v}"
            self.ops.append(Op(key, self._search_run(v, bracket), self._search_after(key, v)))

    def _loop(self, v: str, f: float):
        sweep = SWEEPS[v]
        params = self.designs[v].with_offset(TWO_PI * f)
        return signal_sim.DigitalLoop(params, sweep["f_samp"], hilbert_mode=sweep["hilbert"])

    def _row_run(self, v, f):
        source, loop = self.sources[v], self._loop(v, f)
        duration = SWEEPS[v]["duration"]

        def run():
            theory = analysis.pull_in_time_formula(loop.params, source.variant, TWO_PI * f)
            return theory, signal_sim.run_loop(source, loop, duration)

        return run

    def _row_after(self, key, v, f):
        loop = self._loop(v, f)

        def after(out):
            theory, r = out
            digest = (theory, r.locked, r.t_lock, r.cycle_slips, len(r.t), float(r.theta_e[-1]))
            if self.first_time(key, digest):
                self.formula[(v, f)] = theory
                self._check_row(key, v, f, loop, theory, r)

        return after

    def _check_row(self, key, v, f, loop, theory, r):
        p, T = loop.params, 1.0 / loop.f_samp
        period = math.pi / 2.0 if "qpsk" in v else math.pi
        if len(r.t) != int(round(SWEEPS[v]["duration"] * loop.f_samp)):
            self.problem(key, f"{len(r.t)} samples")
        nco = float(np.max(np.abs(ref.nco_residual(r.theta_e, r.omega2, p.omega1, T))))
        if nco > 1e-9:
            self.problem(key, f"NCO recursion off by {nco:.3g} rad")
        if r.locked and r.pull_in_time != r.t_lock:
            self.problem(key, "pull_in_time differs from t_lock")
        k_lock = int(round(r.t_lock / T)) if r.locked else None
        omega_n, _ = ref.gains(p.k0, p.kd, p.tau1, p.tau2)
        for text in ref.check_lock(r.locked, k_lock, r.theta_e, r.omega2, p.omega1, T,
                                   period, omega_n):
            self.problem(key, text)
        slips = ref.cycle_slips(r.theta_e, period)
        if r.cycle_slips != slips:
            self.problem(key, f"cycle_slips {r.cycle_slips}, counted {slips}")
        if v in ("bpsk", "qpsk"):
            want, dw_l, dw_p = ref.conventional_pull_in_time(p, v == "qpsk", TWO_PI * f)
            if not dw_l < TWO_PI * f < dw_p:
                self.problem(key, "offset outside (lock-in, pull-in)")
            if abs(theory - want) > 1e-9 * want:
                self.problem(key, f"pull_in_time_formula {theory:.12g} s, log form {want:.12g} s")

    def _search_run(self, v, bracket):
        source, loop = self.sources[v], self._loop(v, 0.0)

        def run():
            return signal_sim.measure_pull_in_range(source, loop, bracket, SEARCH_BUDGET,
                                                    resolution=SEARCH_RESOLUTION)

        return run

    def _search_after(self, key, v):
        def after(f):
            if not self.first_time(key, f):
                return
            lo, hi = SEARCHES[v]
            if not lo <= f < hi:
                self.problem(key, f"result {f:g} Hz outside the bracket")
            for offset, want in ((f, True), (f + SEARCH_RESOLUTION, False)):
                r = signal_sim.run_loop(self.sources[v], self._loop(v, offset), SEARCH_BUDGET)
                if r.locked != want:
                    self.problem(key, f"locked={r.locked} at {offset:g} Hz")

        return after

    def finish(self):
        for v in ("mod_bpsk", "mod_qpsk"):
            f0 = SWEEPS[v]["offsets"][0]
            for f in SWEEPS[v]["offsets"][1:]:
                ratio = self.formula[(v, f)] / self.formula[(v, f0)]
                if abs(ratio - (f / f0) ** 2) > 1e-12 * ratio:
                    self.problem(v, f"T({f:g})/T({f0:g}) = {ratio:.15g}, not quadratic")
        for v, source in self.sources.items():
            streams = (0, 1) if "qpsk" in v else (0,)
            for stream in streams:
                seed = source.prbs_seed ^ (0x9E3779B9 * stream & 0xFFFFFFFF)
                n = 1000
                if not np.array_equal(signal_sim.prbs_symbols(seed, n), ref.lfsr_symbols(seed, n)):
                    self.problem(v, f"prbs_symbols({seed:#x}) differs from the LFSR")


# --- record_export ------------------------------------------------------------

# tens of thousands to a few hundred thousand samples per call; the longest
# sets the peak memory
EXPORTS = {
    "bpsk": dict(f_samp=3.2e6, duration=10e-3, delta_f0=50e3),
    "qpsk": dict(f_samp=3.2e6, duration=10e-3, delta_f0=40e3),
    "mod_bpsk": dict(f_samp=12.8e6, duration=3e-3, delta_f0=100e3, hilbert_mode="ideal"),
    "mod_qpsk": dict(f_samp=12.8e6, duration=6e-3, delta_f0=100e3, hilbert_mode="delay"),
}
ARTIFACTS = ("timeseries.csv", "summary.json", "manifest.json")


class RecordExport(Workload):
    name = "record_export"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.configs = {}
        for v, extra in EXPORTS.items():
            prbs_seed, phase = self.carrier()
            cfg = {"schema": 1, "fidelity": "signal", "variant": v, "f0": F0,
                   "f_symbol": F_SYMBOL, "prbs_seed": prbs_seed, "theta1_0": phase, **extra}
            self.configs[v] = cfg
            self.ops.append(self.cli_op(v, "simulate", cfg, self._check, ARTIFACTS))

    def _check(self, key, out: Path):
        cfg = self.configs[key]
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        s, p = summary["summary"], summary["params"]
        if manifest["config_hash"] != canonical_hash(cfg):
            self.problem(key, "config_hash is not the SHA-256 of the canonical config")
        if manifest["seed"] != cfg["prbs_seed"] or manifest["artifacts"] != list(ARTIFACTS[:2]):
            self.problem(key, f"manifest {manifest}")
        cols, problems = ref.read_timeseries(out / "timeseries.csv")
        for text in problems:
            self.problem(key, text)
        f_samp, T = cfg["f_samp"], 1.0 / cfg["f_samp"]
        n = int(round(cfg["duration"] * f_samp))
        if len(cols) != n or s["samples"] != n:
            self.problem(key, f"{len(cols)} rows, summary {s['samples']}, expected {n}")
            return
        t, theta_e, omega2 = cols[:, 0], cols[:, 1], cols[:, 4]
        k = np.arange(n)
        if np.any(np.abs(t - k / f_samp) > 1e-11 * np.maximum(t, T)):
            self.problem(key, "t column is not k/f_samp")
        # each field carries 12 significant digits
        tol = 1e-11 * (np.abs(theta_e[1:]) + np.abs(theta_e[:-1]) + T * np.abs(omega2[:-1]) + 1.0)
        if np.any(np.abs(ref.nco_residual(theta_e, omega2, p["omega1"], T)) > tol):
            self.problem(key, "NCO recursion fails on the CSV columns")
        omega_n, _ = ref.gains(p["k0"], p["kd"], p["tau1"], p["tau2"])
        period = math.pi / 2.0 if "qpsk" in key else math.pi
        k_lock = int(round(s["t_lock"] * f_samp)) if s["locked"] else None
        for text in ref.check_lock(s["locked"], k_lock, theta_e, omega2, p["omega1"], T,
                                   period, omega_n):
            self.problem(key, "summary.json verdict vs CSV: " + text)


# --- ode_pitfall --------------------------------------------------------------

PORTRAIT_T_END = 15.0
DELAY_T_END = 2e-3


class OdePitfall(Workload):
    name = "ode_pitfall"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.model = ode.pitfall_example_model()
        p = self.model.params
        self.x_eq = p.delta_omega0 * p.tau1 / p.k0
        _, phase = self.carrier()
        jitter = self.rng.uniform(-0.05, 0.05, 2)
        # x from a spinning start through the equilibrium charge to beyond it
        portrait = {"schema": 1, "fidelity": "phase", "variant": "bpsk",
                    "params": {k: getattr(p, k) for k in
                               ("omega1", "omega_free", "k0", "kd", "tau1", "tau2")},
                    "t_end": PORTRAIT_T_END,
                    "grid": {"x": [0.0125, 2.0 * self.x_eq - 0.0125, 3],
                             "theta_e": [-0.3 + jitter[0], 0.3 + jitter[1], 2]}}
        self.delay = {}
        for key, (lo, hi) in (("delay_a", (20e3, 30e3)), ("delay_b", (35e3, 45e3))):
            self.delay[key] = {"schema": 1, "fidelity": "delay", "variant": "bpsk",
                               "f0": F0, "f_symbol": F_SYMBOL,
                               "delta_f0": float(self.rng.uniform(lo, hi)),
                               "t_end": DELAY_T_END, "state0": [0.0, phase]}
        self.ops = [self.cli_op(key, "simulate", cfg, self._check_delay,
                                ("trajectory.csv", "summary.json", "manifest.json"))
                    for key, cfg in self.delay.items()]
        self.ops.append(Op("probe", self._probe, self._probe_after))
        self.ops.append(self.cli_op("portrait", "portrait", portrait, self._check_portrait,
                                    ("portrait.csv", "manifest.json")))

    def _probe(self):
        return ode.step_sensitivity_probe(self.model, ode.PITFALL_STATE0, ode.PITFALL_H_LIST,
                                          ode.PITFALL_T_END)

    def _probe_after(self, report):
        digest = ([(v.h, v.locked, v.cycle_slips) for v in report.verdicts],
                  report.reference_locked, report.solver_sensitive)
        if not self.first_time("probe", digest):
            return
        want = {2e-2: True, 1e-2: False, 1e-3: False}
        for h, locked in want.items():
            if report.locked_at(h) != locked:
                self.problem("probe", f"locked={not locked} at h={h:g}")
        if report.reference_locked or report.solver_sensitive:
            self.problem("probe", "RK45 reference locked or solver-sensitive")

    def _check_delay(self, key, out: Path):
        cfg = self.delay[key]
        summary = json.loads((out / "summary.json").read_text())
        p = summary["params"]
        x, theta = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[-1, 1:]
        dw0 = TWO_PI * cfg["delta_f0"]
        x_eq = dw0 * p["tau1"] / p["k0"]
        if not summary["locked"]:
            self.problem(key, "delay-fidelity run did not lock")
        if abs(x - x_eq) > 1e-6 * x_eq:
            self.problem(key, f"final x {x:.12g}, equilibrium {x_eq:.12g}")
        if abs(theta - math.pi * round(theta / math.pi)) > 1e-6:
            self.problem(key, f"final theta_e {theta:.12g} rad is not at a lock point")

    def _check_portrait(self, key, out: Path):
        with open(out / "portrait.csv") as fh:
            if fh.readline() != "t,x,theta_e,class\n":
                self.problem(key, "portrait.csv header")
            rows = [line.rstrip("\n").split(",") for line in fh]
        starts = [i for i, r in enumerate(rows) if float(r[0]) == 0.0] + [len(rows)]
        labels = set()
        for a, b in zip(starts[:-1], starts[1:]):
            label = rows[a][3]
            labels.add(label)
            traj = np.array([[float(v) for v in r[:3]] for r in rows[a:b]])
            t, x, theta = traj[:, 0], traj[:, 1], traj[:, 2]
            if label == "eq":
                if abs(x[-1] - self.x_eq) > 1e-6 * self.x_eq:
                    self.problem(key, f"eq trajectory ends at x {x[-1]:.9g}, not {self.x_eq:.9g}")
                if abs(theta[-1] - math.pi * round(theta[-1] / math.pi)) > 1e-6:
                    self.problem(key, f"eq trajectory ends at theta_e {theta[-1]:.9g}")
            elif label == "cycle":
                tail = theta[t >= 0.8 * PORTRAIT_T_END]
                if abs(tail[-1] - tail[0]) < math.pi:
                    self.problem(key, "cycle trajectory drifts less than one PD period")
        if len(starts) - 1 != 6 or not {"eq", "cycle"} <= labels:
            self.problem(key, f"{len(starts) - 1} trajectories, classes {sorted(labels)}")


WORKLOADS = {w.name: w for w in (AcquireSweep, RecordExport, OdePitfall)}
