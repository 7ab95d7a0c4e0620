"""Command-line front end.

Subcommands: design | predict | simulate | sweep | portrait.  Frequencies
are accepted in Hz on the command line and converted to rad/s internally.
Every output directory receives a run manifest with a digest of the
canonicalized config, so reruns with identical inputs produce
byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DesignSpec,
    RangeError,
    design,
    hold_in_leadlag,
    predict,
    pull_in_time,
    pull_in_time_formula,
)
from .baseband import AveragedModel, ClassicPhaseModel, DelayModel, classic_rhs, delay_rhs
from .baseband import averaged_pull_in_time_numeric
from .core import CSV_FIELD, LoopParams, LoopVariant, pd_period, write_csv_rows
from .detectors import PdCharacteristic
from .ode import (
    IntegratorConfig,
    LockTolerances,
    SlipWatch,
    StiffnessError,
    integrate,
    lock_verdict,
    phase_portrait,
)
from .signal_sim import (
    DigitalLoop,
    LockDetector,
    ModulatedSource,
    NumericBlowUp,
    export_csv,
    run_loop,
)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "COSTAS_LAB_SEED"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(outdir: Path, command: str, config: dict, seed: int, artifacts: list[str]):
    manifest = {
        "schema": 1,
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "artifacts": artifacts,
        "version": __version__,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require_keys(cfg: dict, allowed: set, required: set, context: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise CliError(f"unknown {context} keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise CliError(f"missing {context} keys: {sorted(missing)}")


_CONFIG_KEYS = {
    "schema", "fidelity", "variant", "pd_flavor", "f0", "f_symbol", "m",
    "delta_f0", "f_samp", "duration", "prbs_seed", "theta1_0", "data_mode",
    "hilbert_mode", "detector", "params", "design", "tau1", "omega_t_ratio",
    "t_end", "method", "h", "rtol", "atol", "state0", "grid", "states",
}

_DETECTOR_KEYS = {"freq_window", "freq_tol", "phase_tol"}

_PARAM_KEYS = {"omega1", "omega_free", "k0", "kd", "tau1", "tau2", "omega3",
               "omega_n", "zeta", "delta_omega0"}

_NUMBER_KEYS = {"f0", "f_symbol", "m", "delta_f0", "f_samp", "duration", "theta1_0",
                "tau1", "omega_t_ratio", "t_end", "h", "rtol", "atol"}


def _check_number(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        finite = False
    if not finite:
        raise CliError(f"{name} must be finite, got {value!r}")


def _check_types(cfg: dict) -> None:
    """Reject a config value of the wrong JSON type, or a non-finite number,
    before any of it is used."""
    for key in sorted(_NUMBER_KEYS & cfg.keys()):
        _check_number(cfg[key], key)
    seed = cfg.get("prbs_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CliError(f"prbs_seed must be an integer, got {seed!r}")
    for key in ("detector", "params"):
        if key not in cfg:
            continue
        if not isinstance(cfg[key], dict):
            raise CliError(f"{key} must be a JSON object, got {cfg[key]!r}")
        for name, value in cfg[key].items():
            if not (name == "omega3" and value is None):
                _check_number(value, f"{key}.{name}")


def load_config(path: str, overrides: dict | None = None) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise CliError("config must declare schema: 1")
    _require_keys(cfg, _CONFIG_KEYS, {"schema", "fidelity", "variant"}, "config")
    if overrides:
        cfg = {**cfg, **{k: v for k, v in overrides.items() if v is not None}}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["prbs_seed"] = int(env_seed, 0)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    _check_types(cfg)
    if "detector" in cfg:
        _require_keys(cfg["detector"], _DETECTOR_KEYS, set(), "detector")
    return cfg


def _effective_seed(cfg: dict) -> int:
    return cfg.get("prbs_seed", ModulatedSource.prbs_seed)


def variant_from_config(cfg: dict) -> LoopVariant:
    try:
        return LoopVariant.from_name(cfg["variant"], cfg.get("pd_flavor"))
    except ValueError as exc:
        raise CliError(str(exc))


def params_from_config(cfg: dict, variant: LoopVariant) -> LoopParams:
    if "params" in cfg:
        p = dict(cfg["params"])
        _require_keys(p, _PARAM_KEYS, {"omega1", "omega_free", "k0", "kd", "tau1", "tau2"}, "params")
        params = LoopParams.from_gains(
            omega1=p["omega1"], omega_free=p["omega_free"], k0=p["k0"], kd=p["kd"],
            tau1=p["tau1"], tau2=p["tau2"], omega3=p.get("omega3"),
        )
    else:
        if "f0" not in cfg or "f_symbol" not in cfg:
            raise CliError("config needs either params{} or f0 + f_symbol for design")
        spec = DesignSpec(
            f0=cfg["f0"],
            f_symbol=cfg["f_symbol"],
            variant=variant,
            omega_t_ratio=cfg.get("omega_t_ratio", 0.1),
            tau1=cfg.get("tau1", 20e-6),
            m=cfg.get("m", 1.0),
        )
        params = design(spec)
    if "delta_f0" in cfg:
        params = params.with_offset(2.0 * math.pi * cfg["delta_f0"])
    return params


def detector_from_config(cfg: dict, params: LoopParams) -> LockDetector:
    base = LockDetector.for_params(params)
    d = cfg.get("detector")
    if not d:
        return base
    return LockDetector(
        freq_window=d.get("freq_window", base.freq_window),
        freq_tol=d.get("freq_tol", base.freq_tol),
        phase_tol=d.get("phase_tol", base.phase_tol),
    )


# --- subcommands -------------------------------------------------------------

def cmd_design(args) -> int:
    variant = LoopVariant.from_name(args.variant, args.pd_flavor)
    spec = DesignSpec(
        f0=args.f0, f_symbol=args.fs, variant=variant,
        omega_t_ratio=args.ratio, tau1=args.tau1, m=args.m,
    )
    params = design(spec)
    report = predict(params, variant)
    out = {
        "schema": 1,
        "params": params.to_dict(),
        "prediction": report.to_dict(),
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
    print(text)
    return 0


def cmd_predict(args) -> int:
    blob = json.loads(Path(args.params).read_text())
    pdict = blob.get("params", blob)
    params = LoopParams.from_dict(pdict)
    variant = LoopVariant.from_name(args.variant, args.pd_flavor)
    report = predict(params, variant)
    out = {"schema": 1, "prediction": report.to_dict()}
    if args.leadlag:
        tau1, tau2, omega3 = (float(x) for x in args.leadlag.split(","))
        hold = hold_in_leadlag(params.k0, params.kd, tau1, tau2, omega3)
        out["leadlag_hold_in"] = hold.to_dict()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _simulate_signal(cfg: dict, variant: LoopVariant, params: LoopParams):
    source = ModulatedSource(
        variant=variant,
        f_carrier=cfg["f0"],
        f_symbol=cfg["f_symbol"],
        m=cfg.get("m", 1.0),
        prbs_seed=cfg.get("prbs_seed", ModulatedSource.prbs_seed),
        theta1_0=cfg.get("theta1_0", 0.0),
        data_mode=cfg.get("data_mode", "prbs"),
    )
    loop = DigitalLoop(
        params=params,
        f_samp=cfg["f_samp"],
        hilbert_mode=cfg.get("hilbert_mode", "delay"),
    )
    detector = detector_from_config(cfg, params)
    return run_loop(source, loop, cfg["duration"], detector), source


def _simulate_ode(cfg: dict, variant: LoopVariant, params: LoopParams):
    pd = PdCharacteristic(variant, cfg.get("m", 1.0))
    fidelity = cfg["fidelity"]
    state0 = cfg.get("state0", [0.0, 0.0])
    icfg = IntegratorConfig(
        t_end=cfg["t_end"],
        method=cfg.get("method", "rk45"),
        h=cfg.get("h", 1e-3),
        rtol=cfg.get("rtol", 1e-8),
        atol=cfg.get("atol", 1e-10),
    )
    if fidelity == "phase":
        model = ClassicPhaseModel(params, pd)

        def rhs(t, y):
            return classic_rhs(model, y)
    else:
        model = DelayModel(params, pd)
        seed = [params.delta_omega0]

        def rhs(t, y):
            slope = delay_rhs(model, y, seed[0])
            seed[0] = slope[1]
            return slope

    traj = integrate(rhs, state0, icfg, SlipWatch(component=1, period=pd_period(variant)))
    tol = LockTolerances.for_model(ClassicPhaseModel(params, pd))
    locked = lock_verdict(traj, rhs, pd_period(variant), tol)
    return traj, locked


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, {"delta_f0": args.delta_f0})
    variant = variant_from_config(cfg)
    params = params_from_config(cfg, variant)
    fidelity = cfg["fidelity"]
    # every branch computes before it creates the output directory, so a
    # rejected config leaves nothing behind
    outdir = Path(args.output)
    if fidelity == "signal":
        _require_keys(cfg, _CONFIG_KEYS, {"f_samp", "duration", "f_symbol", "f0"}, "signal config")
        result, _ = _simulate_signal(cfg, variant, params)
        outdir.mkdir(parents=True, exist_ok=True)
        export_csv(result, str(outdir / "timeseries.csv"))
        summary = {"schema": 1, "summary": result.summary(), "params": params.to_dict()}
        artifacts = ["timeseries.csv", "summary.json"]
    elif fidelity in ("phase", "delay"):
        if "t_end" not in cfg:
            raise CliError(f"{fidelity} fidelity needs t_end")
        traj, locked = _simulate_ode(cfg, variant, params)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "trajectory.csv", "w", newline="") as fh:
            fh.write("t,x,theta_e\n")
            write_csv_rows(fh, (traj.t, traj.y[:, 0], traj.y[:, 1]))
        slips = sum(1 for e in traj.events if e.kind == "cycle_slip")
        blown = any(e.kind == "blow_up" for e in traj.events)
        if blown:
            raise NumericBlowUp(len(traj.t))
        summary = {"schema": 1, "locked": locked, "cycle_slips": slips,
                   "solver": {"steps": len(traj.t) - 1,
                              "rejected_steps": traj.rejected_steps,
                              "rhs_calls": traj.rhs_calls},
                   "params": params.to_dict()}
        artifacts = ["trajectory.csv", "summary.json"]
    elif fidelity == "averaged":
        model = AveragedModel(params, variant)
        dw0 = abs(params.delta_omega0)
        t_p = averaged_pull_in_time_numeric(model, dw0)
        summary = {
            "schema": 1,
            "pull_in_time_numeric": t_p,
            "pull_in_time_formula": pull_in_time(params, variant, dw0),
            "params": params.to_dict(),
        }
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts = ["summary.json"]
    else:
        raise CliError(f"unknown fidelity {fidelity!r}")
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(outdir, "simulate", cfg, _effective_seed(cfg), artifacts)
    print(json.dumps({"outdir": str(outdir), "artifacts": artifacts}))
    return 0


def _sweep_row(task):
    cfg, delta_f = task
    variant = LoopVariant.from_name(cfg["variant"], cfg.get("pd_flavor"))
    params = params_from_config({k: v for k, v in cfg.items() if k != "delta_f0"}, variant)
    params = params.with_offset(2.0 * math.pi * delta_f)
    try:
        theory = pull_in_time_formula(params, variant, 2.0 * math.pi * delta_f)
    except RangeError:
        theory = math.nan
    row_cfg = dict(cfg)
    row_cfg["delta_f0"] = delta_f
    result, _ = _simulate_signal(row_cfg, variant, params)
    sim = result.pull_in_time if result.locked else math.nan
    return delta_f, theory, sim, result.locked


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg["fidelity"] != "signal":
        raise CliError("sweep requires fidelity: signal")
    offsets = [float(x) for x in args.offsets.split(",") if x.strip()]
    if not offsets:
        raise CliError("no offsets given")
    for f in offsets:
        _check_number(f, "offset")
    tasks = [(cfg, f) for f in offsets]
    if args.jobs > 1:
        import multiprocessing as mp

        with mp.Pool(args.jobs) as pool:
            rows = pool.map(_sweep_row, tasks)
    else:
        rows = [_sweep_row(t) for t in tasks]
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write("delta_f0_hz,t_p_theory_s,t_p_sim_s,locked\n")
        write_csv_rows(fh, list(zip(*rows)), f"{CSV_FIELD},{CSV_FIELD},{CSV_FIELD},%d\n")
    write_manifest(outdir, "sweep", {**cfg, "offsets": offsets},
                   _effective_seed(cfg), ["sweep.csv"])
    print(json.dumps({"outdir": str(args.output), "rows": len(rows)}))
    return 0


def cmd_portrait(args) -> int:
    cfg = load_config(args.config)
    if cfg["fidelity"] != "phase":
        raise CliError("portrait requires the 2-state fidelity: phase")
    variant = variant_from_config(cfg)
    params = params_from_config(cfg, variant)
    model = ClassicPhaseModel(params, PdCharacteristic(variant, cfg.get("m", 1.0)))
    if "states" in cfg:
        states = [tuple(s) for s in cfg["states"]]
    elif "grid" in cfg:
        g = cfg["grid"]
        _require_keys(g, {"x", "theta_e"}, {"x", "theta_e"}, "grid")
        xs = np.linspace(g["x"][0], g["x"][1], int(g["x"][2]))
        ths = np.linspace(g["theta_e"][0], g["theta_e"][1], int(g["theta_e"][2]))
        states = [(float(x), float(th)) for x in xs for th in ths]
    else:
        raise CliError("portrait config needs grid{} or states[]")
    if not states:
        raise CliError("portrait grid is empty")
    portrait = phase_portrait(model, states, cfg["t_end"], locate_cycles=False)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "portrait.csv"
    with open(path, "w", newline="") as fh:
        fh.write("t,x,theta_e,class\n")
        for c in portrait.trajectories:
            write_csv_rows(fh, (c.trajectory.t, c.trajectory.y[:, 0], c.trajectory.y[:, 1]),
                           f"{CSV_FIELD},{CSV_FIELD},{CSV_FIELD},{c.label}\n")
    write_manifest(outdir, "portrait", cfg, _effective_seed(cfg), ["portrait.csv"])
    print(json.dumps({"outdir": str(args.output),
                      "classes": sorted({c.label for c in portrait.trajectories})}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="costas-lab",
        description="Carrier-recovery loop design, prediction, and simulation",
    )
    ap.add_argument("--version", action="version", version=f"costas-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design loop parameters from carrier and symbol rate")
    d.add_argument("--variant", required=True,
                   choices=["bpsk", "qpsk", "mod_bpsk", "mod_qpsk"])
    d.add_argument("--f0", type=float, required=True, help="carrier frequency, Hz")
    d.add_argument("--fs", type=float, required=True, help="symbol rate, symbols/s")
    d.add_argument("--ratio", type=float, default=0.1, help="transit frequency ratio")
    d.add_argument("--tau1", type=float, default=20e-6)
    d.add_argument("--m", type=float, default=1.0)
    d.add_argument("--pd-flavor", default=None,
                   choices=["mul_mul", "sgn_cross", "complex_phase", "complex_imag"])
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_design)

    p = sub.add_parser("predict", help="acquisition metrics for a params file")
    p.add_argument("--params", required=True)
    p.add_argument("--variant", required=True,
                   choices=["bpsk", "qpsk", "mod_bpsk", "mod_qpsk"])
    p.add_argument("--pd-flavor", default=None,
                   choices=["mul_mul", "sgn_cross", "complex_phase", "complex_imag"])
    p.add_argument("--leadlag", default=None, metavar="TAU1,TAU2,OMEGA3",
                   help="also emit the lead-lag hold-in cases")
    p.set_defaults(func=cmd_predict)

    s = sub.add_parser("simulate", help="run one loop simulation from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--delta-f0", type=float, default=None, dest="delta_f0",
                   help="override the config's frequency offset, Hz")
    s.add_argument("-o", "--output", default="out")
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="sweep frequency offsets, theory vs simulation")
    w.add_argument("--config", required=True)
    w.add_argument("--offsets", required=True, help="comma-separated offsets, Hz")
    w.add_argument("--jobs", type=int, default=1)
    w.add_argument("-o", "--output", default="out")
    w.set_defaults(func=cmd_sweep)

    t = sub.add_parser("portrait", help="classified phase-portrait bundle")
    t.add_argument("--config", required=True)
    t.add_argument("-o", "--output", default="out")
    t.set_defaults(func=cmd_portrait)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # ConfigError, DesignError, RangeError and JSONDecodeError are ValueErrors
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericBlowUp, StiffnessError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
