"""Command-line front end.

Subcommands: design | predict | simulate | sweep | portrait.  Frequencies
are accepted in Hz on the command line and converted to rad/s internally.
A run's inputs are its config file (and a sweep's ``--offsets``, whose
rows run in order, in one process); every output directory receives a
run manifest with a digest of that canonicalized config, so reruns with
identical inputs produce byte-identical artifacts.

A config carries exactly the keys its command reads at its fidelity: the
shared keys plus that command's row of ``_CONFIG_KEYS``; a key left out
takes the default of the dataclass it configures.

Exit codes: 0 success; 2 config error, including a key the command does
not read at the config's fidelity and a portrait of more than
:data:`MAX_PORTRAIT_STATES` initial states; 3 numeric failure: a blow-up
(also where the rhs raises on a state that left the float range), an
RK45 step-size underflow or attempt cap, or a failed delay-model
implicit solve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path
from types import MethodType

import numpy as np

from . import __version__
from .analysis import (
    DesignSpec,
    RangeError,
    averaged_pull_in_time_numeric,
    design,
    hold_in_leadlag,
    predict,
    pull_in_time,
    pull_in_time_formula,
)
from .baseband import ClassicPhaseModel, DelayModel, ImplicitSolveError, classic_rhs, delay_rhs
from .core import LoopParams, LoopVariant, PdFlavor, VariantTag, check_real
from .core import count_cycle_slips, pd_period, write_csv_rows
from .detectors import PdCharacteristic
from .ode import (
    IntegratorConfig,
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

# Most initial states (or points on one grid axis) a portrait may ask for.
# Trajectories are written one at a time, so memory holds one (up to about
# 41 MB at ode.MAX_STEPS); the cap bounds the run time and portrait.csv,
# up to about 60 MB per state.  The largest portrait the tests or the
# benchmark make has 6 states; 100 is 16 times that, a 10 x 10 grid.
MAX_PORTRAIT_STATES = 100


class CliError(ValueError):
    """A config or command-line value the CLI rejects (exit 2)."""


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


# Keys every config may carry: the variant, the seed and the loop
# constants (``params``, or the design inputs).
_SHARED_KEYS = {"schema", "fidelity", "variant", "pd_flavor", "prbs_seed", "params", "f0",
                "f_symbol", "tau1", "omega_t_ratio", "m"}

# {command: {fidelity: (required keys, optional keys)}} beside the shared
# keys: a config carries exactly the keys its command reads at its fidelity.
# Every run but a sweep's reads the frequency offset delta_f0; a sweep
# takes one per row from --offsets.
_SIGNAL_REQUIRED = {"f0", "f_symbol", "f_samp", "duration"}
_SIGNAL_OPTIONAL = {"theta1_0", "data_mode", "hilbert_mode", "detector"}
_ODE_KEYS = ({"t_end"}, {"method", "h", "rtol", "atol", "state0", "delta_f0"})
_CONFIG_KEYS = {
    "simulate": {"signal": (_SIGNAL_REQUIRED, _SIGNAL_OPTIONAL | {"delta_f0"}),
                 "phase": _ODE_KEYS, "delay": _ODE_KEYS, "averaged": (set(), {"delta_f0"})},
    "sweep": {"signal": (_SIGNAL_REQUIRED, _SIGNAL_OPTIONAL)},
    "portrait": {"phase": ({"t_end"}, {"grid", "states", "delta_f0"})},
}

_DETECTOR_KEYS = {"freq_window", "freq_tol", "phase_tol"}

_NUMBER_KEYS = {"f0", "f_symbol", "m", "delta_f0", "f_samp", "duration", "theta1_0",
                "tau1", "omega_t_ratio", "t_end", "h", "rtol", "atol"}


def _check_object(value, name: str) -> None:
    if not isinstance(value, dict):
        raise CliError(f"{name} must be a JSON object, got {value!r}")


def _check_vector(value, name: str, size: int) -> None:
    if not isinstance(value, list) or len(value) != size:
        raise CliError(f"{name} must be a list of {size} numbers, got {value!r}")
    for i, v in enumerate(value):
        check_real(v, f"{name}[{i}]")


def _check_types(cfg: dict) -> None:
    """Reject a config value of the wrong JSON type, or a non-finite number,
    before any of it is used.  ``params`` is left to LoopParams.from_dict."""
    for key in sorted(_NUMBER_KEYS & cfg.keys()):
        check_real(cfg[key], key)
    seed = cfg.get("prbs_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CliError(f"prbs_seed must be an integer, got {seed!r}")
    if "detector" in cfg:
        _check_object(cfg["detector"], "detector")
        _require_keys(cfg["detector"], _DETECTOR_KEYS, set(), "detector")
        for name, value in cfg["detector"].items():
            check_real(value, f"detector.{name}")
    if "state0" in cfg:
        _check_vector(cfg["state0"], "state0", 2)
    if "states" in cfg:
        if not isinstance(cfg["states"], list):
            raise CliError(f"states must be a list of [x, theta_e] pairs, got {cfg['states']!r}")
        for i, state in enumerate(cfg["states"]):
            _check_vector(state, f"states[{i}]", 2)
    if "grid" in cfg:
        _check_object(cfg["grid"], "grid")
        _require_keys(cfg["grid"], {"x", "theta_e"}, {"x", "theta_e"}, "grid")
        for axis in ("x", "theta_e"):
            _check_vector(cfg["grid"][axis], f"grid.{axis}", 3)


def load_config(args) -> dict:
    """The config file ``args.config`` of a simulate, sweep or portrait
    command line, the run's whole input: it carries exactly the keys
    ``args.command`` reads at its fidelity, each of the right type."""
    path = args.config
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    schema = cfg.get("schema")
    if isinstance(schema, bool) or schema != 1:
        raise CliError("config must declare schema: 1")
    if "fidelity" not in cfg:
        raise CliError("missing config keys: ['fidelity']")
    fidelity, fidelities = cfg["fidelity"], _CONFIG_KEYS[args.command]
    if not isinstance(fidelity, str) or fidelity not in fidelities:
        raise CliError(f"unknown fidelity {fidelity!r} for {args.command}, "
                       f"not one of {list(fidelities)}")
    required, optional = fidelities[fidelity]
    _require_keys(cfg, _SHARED_KEYS | required | optional,
                  {"schema", "fidelity", "variant"} | required, f"{fidelity} config")
    _check_types(cfg)
    return cfg


def _given(cfg: dict, *keys: str) -> dict:
    """The entries of ``cfg`` under ``keys``: a key left out takes the
    default of the dataclass it is passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


def _effective_seed(cfg: dict) -> int:
    return cfg.get("prbs_seed", ModulatedSource.prbs_seed)


def variant_from_config(cfg: dict) -> LoopVariant:
    try:
        return LoopVariant.from_name(cfg["variant"], cfg.get("pd_flavor"))
    except ValueError as exc:
        raise CliError(str(exc))


def params_from_config(cfg: dict, variant: LoopVariant) -> LoopParams:
    if "params" in cfg:
        params = LoopParams.from_dict(cfg["params"])
    else:
        if "f0" not in cfg or "f_symbol" not in cfg:
            raise CliError("config needs either params{} or f0 + f_symbol for design")
        params = design(DesignSpec(f0=cfg["f0"], f_symbol=cfg["f_symbol"], variant=variant,
                                   **_given(cfg, "omega_t_ratio", "tau1", "m")))
    if "delta_f0" in cfg:
        params = params.with_offset(2.0 * math.pi * cfg["delta_f0"])
    return params


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
    # a design output file, or a bare params object
    if isinstance(blob, dict) and "params" in blob:
        blob = blob["params"]
    params = LoopParams.from_dict(blob)
    variant = LoopVariant.from_name(args.variant, args.pd_flavor)
    report = predict(params, variant)
    out = {"schema": 1, "prediction": report.to_dict()}
    if args.leadlag:
        try:
            tau1, tau2, omega3 = (float(x) for x in args.leadlag.split(","))
        except ValueError:   # not three values, or not numbers
            raise CliError(f"--leadlag takes TAU1,TAU2,OMEGA3, got {args.leadlag!r}") from None
        hold = hold_in_leadlag(params.k0, params.kd, tau1, tau2, omega3)
        out["leadlag_hold_in"] = hold.to_dict()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _simulate_signal(cfg: dict, variant: LoopVariant, params: LoopParams,
                     signals: bool = False):
    source = ModulatedSource(variant, cfg["f0"], cfg["f_symbol"],
                             **_given(cfg, "m", "prbs_seed", "theta1_0", "data_mode"))
    loop = DigitalLoop(params, cfg["f_samp"], **_given(cfg, "hilbert_mode"))
    detector = LockDetector.for_params(params, **cfg.get("detector", {}))
    return run_loop(source, loop, cfg["duration"], detector, signals=signals)


def _simulate_ode(cfg: dict, variant: LoopVariant, params: LoopParams):
    pd = PdCharacteristic(variant, **_given(cfg, "m"))
    state0 = cfg.get("state0", [0.0, 0.0])
    icfg = IntegratorConfig(t_end=cfg["t_end"], **_given(cfg, "method", "h", "rtol", "atol"))
    if cfg["fidelity"] == "phase":
        # as ode's probe binds it: read here, so a rebinding of
        # cli.classic_rhs made before the run sees every call
        rhs = MethodType(classic_rhs, ClassicPhaseModel(params, pd))
    else:
        model = DelayModel(params, pd)
        seed = [params.delta_omega0]

        def rhs(t, y):
            slope = delay_rhs(model, y, seed[0])
            seed[0] = slope[1]
            return slope

    traj = integrate(rhs, state0, icfg)
    if traj.blown_up:   # the step after the last recorded row failed
        raise NumericBlowUp(where=f"step {len(traj.t)}, from t={traj.t[-1]:g}")
    return traj, lock_verdict(traj, rhs, params, variant)


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    variant = variant_from_config(cfg)
    params = params_from_config(cfg, variant)
    fidelity = cfg["fidelity"]
    # every branch computes before it creates the output directory, so a
    # rejected config or a failed run leaves nothing behind
    outdir = Path(args.output)
    if fidelity == "signal":
        result = _simulate_signal(cfg, variant, params, signals=True)
        outdir.mkdir(parents=True, exist_ok=True)
        export_csv(result, str(outdir / "timeseries.csv"))
        summary = {"schema": 1, "summary": result.summary(), "params": params.to_dict()}
        artifacts = ["timeseries.csv", "summary.json"]
    elif fidelity in ("phase", "delay"):
        traj, locked = _simulate_ode(cfg, variant, params)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "trajectory.csv", "w", newline="") as fh:
            fh.write("t,x,theta_e\n")
            write_csv_rows(fh, (traj.t, traj.y[:, 0], traj.y[:, 1]))
        summary = {"schema": 1, "locked": locked,
                   "cycle_slips": count_cycle_slips(traj.y[:, 1], pd_period(variant)),
                   "solver": {"steps": len(traj.t) - 1,
                              "rejected_steps": traj.rejected_steps,
                              "rhs_calls": traj.rhs_calls},
                   "params": params.to_dict()}
        artifacts = ["trajectory.csv", "summary.json"]
    else:
        dw0 = abs(params.delta_omega0)
        t_p = averaged_pull_in_time_numeric(params, variant, dw0)
        summary = {
            "schema": 1,
            "pull_in_time_numeric": t_p,
            "pull_in_time_formula": pull_in_time(params, variant, dw0),
            "params": params.to_dict(),
        }
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts = ["summary.json"]
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(outdir, "simulate", cfg, _effective_seed(cfg), artifacts)
    print(json.dumps({"outdir": str(outdir), "artifacts": artifacts}))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    offsets = [float(x) for x in args.offsets.split(",") if x.strip()]
    if not offsets:
        raise CliError("no offsets given")
    for f in offsets:
        check_real(f, "offset")
    variant = variant_from_config(cfg)
    designed = params_from_config(cfg, variant)
    rows = []
    for f in offsets:
        dw0 = 2.0 * math.pi * f
        params = designed.with_offset(dw0)
        try:
            theory = pull_in_time_formula(params, variant, dw0)
        except RangeError:
            theory = math.nan
        result = _simulate_signal(cfg, variant, params)
        rows.append((f, theory, result.pull_in_time if result.locked else math.nan,
                     result.locked))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        fh.write("delta_f0_hz,t_p_theory_s,t_p_sim_s,locked\n")
        write_csv_rows(fh, list(zip(*rows))[:3], ["%d" % locked for *_, locked in rows])
    write_manifest(outdir, "sweep", {**cfg, "offsets": offsets},
                   _effective_seed(cfg), ["sweep.csv"])
    print(json.dumps({"outdir": str(args.output), "rows": len(rows)}))
    return 0


def cmd_portrait(args) -> int:
    cfg = load_config(args)
    variant = variant_from_config(cfg)
    params = params_from_config(cfg, variant)
    model = ClassicPhaseModel(params, PdCharacteristic(variant, **_given(cfg, "m")))
    if ("states" in cfg) == ("grid" in cfg):
        raise CliError("portrait config needs exactly one of grid{} and states[]")
    if "states" in cfg:
        count = len(cfg["states"])
    else:
        nx, nth = int(cfg["grid"]["x"][2]), int(cfg["grid"]["theta_e"][2])
        count = max(nx, nth, nx * nth)
    if count > MAX_PORTRAIT_STATES:
        raise CliError(f"portrait asks for {count} states or grid points, above the cap "
                       f"of {MAX_PORTRAIT_STATES} (cli.MAX_PORTRAIT_STATES)")
    if "states" in cfg:
        states = [tuple(s) for s in cfg["states"]]
    else:
        g = cfg["grid"]
        for axis in ("x", "theta_e"):
            if isinstance(g[axis][2], float) or g[axis][2] < 1:
                raise CliError(f"grid.{axis}[2] must be an integer >= 1, got {g[axis][2]!r}")
        xs = np.linspace(g["x"][0], g["x"][1], nx)
        ths = np.linspace(g["theta_e"][0], g["theta_e"][1], nth)
        states = [(float(x), float(th)) for x in xs for th in ths]
    if not states:
        raise CliError("portrait states[] is empty")
    # each trajectory's rows are written before the next state runs; a run
    # that fails leaves neither the rows nor a directory it made
    outdir = Path(args.output)
    created = next((d for d in [*reversed(outdir.parents), outdir] if not d.exists()), None)
    outdir.mkdir(parents=True, exist_ok=True)
    part = outdir / "portrait.csv.part"
    labels = set()
    try:
        with open(part, "w", newline="") as fh:
            fh.write("t,x,theta_e,class\n")

            def emit(c):
                t, y = c.trajectory.t, c.trajectory.y
                write_csv_rows(fh, (t, y[:, 0], y[:, 1]), [c.label] * len(t))
                labels.add(c.label)

            phase_portrait(model, states, cfg["t_end"], emit)
    except BaseException:
        if created is None:
            part.unlink(missing_ok=True)
        else:
            shutil.rmtree(created)
        raise
    part.replace(outdir / "portrait.csv")
    write_manifest(outdir, "portrait", cfg, _effective_seed(cfg), ["portrait.csv"])
    print(json.dumps({"outdir": str(args.output), "classes": sorted(labels)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="costas-lab",
        description="Carrier-recovery loop design, prediction, and simulation",
    )
    ap.add_argument("--version", action="version", version=f"costas-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    variants = [tag.value for tag in VariantTag]
    flavors = [flavor.value for flavor in PdFlavor]

    d = sub.add_parser("design", help="design loop parameters from carrier and symbol rate")
    d.add_argument("--variant", required=True, choices=variants)
    d.add_argument("--f0", type=float, required=True, help="carrier frequency, Hz")
    d.add_argument("--fs", type=float, required=True, help="symbol rate, symbols/s")
    d.add_argument("--ratio", type=float, default=DesignSpec.omega_t_ratio,
                   help="transit frequency ratio")
    d.add_argument("--tau1", type=float, default=DesignSpec.tau1)
    d.add_argument("--m", type=float, default=DesignSpec.m)
    d.add_argument("--pd-flavor", default=None, choices=flavors)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_design)

    p = sub.add_parser("predict", help="acquisition metrics for a params file")
    p.add_argument("--params", required=True)
    p.add_argument("--variant", required=True, choices=variants)
    p.add_argument("--pd-flavor", default=None, choices=flavors)
    p.add_argument("--leadlag", default=None, metavar="TAU1,TAU2,OMEGA3",
                   help="also emit the lead-lag hold-in cases")
    p.set_defaults(func=cmd_predict)

    s = sub.add_parser("simulate", help="run one loop simulation from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("-o", "--output", default="out")
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="sweep frequency offsets, theory vs simulation")
    w.add_argument("--config", required=True)
    w.add_argument("--offsets", required=True, help="comma-separated offsets, Hz")
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
    # CliError, ConfigError, DesignError, RangeError and JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericBlowUp, StiffnessError, ImplicitSolveError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
