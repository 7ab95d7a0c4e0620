import argparse
import hashlib
import importlib
import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path
from types import MethodType

import numpy as np
import pytest

from costas_lab import analysis, baseband, cli, core, ode, signal_sim
from costas_lab.cli import main
from costas_lab.core import PdFlavor, VariantTag
from costas_lab.detectors import PdCharacteristic

BASE_SIGNAL_CFG = {
    "schema": 1,
    "fidelity": "signal",
    "variant": "bpsk",
    "f0": 400e3,
    "f_symbol": 100e3,
    "f_samp": 3.2e6,
    "duration": 6e-4,
    "delta_f0": 50e3,
}

# README's sweep.json: the sim.json above without delta_f0, which a sweep
# takes per row from --offsets
SWEEP_CFG = {k: v for k, v in BASE_SIGNAL_CFG.items() if k != "delta_f0"}


PHASE_CFG = {
    "schema": 1,
    "fidelity": "phase",
    "variant": "bpsk",
    "f0": 400e3,
    "f_symbol": 100e3,
    "delta_f0": 10e3,
    "t_end": 3e-4,
}


AVERAGED_CFG = {
    "schema": 1,
    "fidelity": "averaged",
    "variant": "bpsk",
    "f0": 400e3,
    "f_symbol": 100e3,
    "delta_f0": 100e3,
}


# the params object `design --variant bpsk --f0 400e3 --fs 100e3` writes
DESIGN_PARAMS = analysis.design(
    analysis.DesignSpec(400e3, 100e3, core.CONVENTIONAL_BPSK)).to_dict()
DESIGN_GAINS = {k: DESIGN_PARAMS[k]
                for k in ("omega1", "omega_free", "k0", "kd", "tau1", "tau2", "omega3")}
# the designed gains with a stated omega_n and zeta that contradict them
STATED_NORMALIZATION = {**DESIGN_GAINS, "omega_n": 1.0, "zeta": 5.0}
# gains whose product k0*kd underflows, and omega_n with it, to 0.0
TINY_GAINS = {**DESIGN_GAINS, "k0": 1e-200, "kd": 1e-200}

# Finite configs whose runs leave the float range: the delay model's
# implicit solve loses its seed rate, a detuning of 1e300 rad/s drives
# theta_e past 9e307, where the PD's math calls raise (sin of an infinite
# 2*theta_e, floor of an infinite theta_e/P), and a VCO gain of 1e30 drives
# the signal loop's phase accumulator out of range
NUMERIC_FAILURES = {
    "signal-bpsk": {**BASE_SIGNAL_CFG, "params": {**DESIGN_GAINS, "k0": 1e30}},
    "delay-implicit-solve": {"schema": 1, "fidelity": "delay", "variant": "bpsk",
                             "params": {**DESIGN_GAINS, "k0": 1e300, "tau1": 1e-300,
                                        "tau2": 1e-301, "omega3": 1e6},
                             "t_end": 3e-4, "state0": [0.0, 0.5]},
    **{f"{fidelity}-{variant}-rk4": {"schema": 1, "fidelity": fidelity, "variant": variant,
                                     "params": {**DESIGN_GAINS, "omega_free": -1e300},
                                     "method": "rk4", "h": 1e5, "t_end": 1e10}
       for fidelity, variant in (("phase", "mod_bpsk"), ("phase", "qpsk"),
                                 ("phase", "bpsk"), ("delay", "bpsk"))},
}
# the error line each names: the signal sample, the implicit solve, or the
# ODE step (the one after the last recorded row) and its start time
NUMERIC_FAILURE_LINES = {
    "signal-bpsk": "numeric failure: non-finite loop state at sample 1\n",
    "delay-implicit-solve": "numeric failure: seed rate is not finite\n",
    "phase-mod_bpsk-rk4": "numeric failure: non-finite loop state at step 2, from t=100000\n",
    "phase-qpsk-rk4": "numeric failure: non-finite loop state at step 1798, from t=1.797e+08\n",
    "phase-bpsk-rk4": "numeric failure: non-finite loop state at step 899, from t=8.98e+07\n",
    "delay-bpsk-rk4": "numeric failure: non-finite loop state at step 899, from t=8.98e+07\n",
}


# overflow, underflow and the smallest subnormals, for the numeric flags
EXTREME_VALUES = ["1e308", "-1e308", "5e-324", "1e-320"]
DESIGN_EXTREMES = [(flag, value) for flag in ("--f0", "--fs", "--ratio", "--tau1", "--m")
                   for value in EXTREME_VALUES] + [("--f0", "1e300")]
# the derived constant each of these extremes drives out of the float range
DESIGN_NAMED = {
    ("--f0", "1e308"): "omega0", ("--f0", "1e300"): "k0", ("--ratio", "5e-324"): "omega_t",
    ("--ratio", "1e-320"): "omega_t", ("--m", "5e-324"): "kd", ("--m", "1e-320"): "kd",
    ("--m", "1e308"): "kd", ("--tau1", "1e-320"): "k0",
}


def assert_finite_json(text):
    json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in the output"))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_derived_refusal(tmp_path, capsys, argv, cfg, name):
    """``argv`` run on the config ``cfg`` exits 2 with the error line of
    ``analysis._derived`` for the constant ``name``, and leaves no output
    directory."""
    out = tmp_path / "o"
    assert main([*argv, "--config", write_cfg(tmp_path, cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: derived constant {name}")
    assert not out.exists()


class TestDesignCommand:
    def test_reference_bpsk(self, capsys):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["params"]["k0"] - 1.262e6) / 1.262e6 < 0.01
        assert abs(out["params"]["zeta"] - 0.5) < 0.003
        assert out["prediction"]["formula_ids"]["delta_omega_l"]

    def test_reference_qpsk(self, capsys):
        assert main(["design", "--variant", "qpsk", "--f0", "400e3", "--fs", "100e3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["params"]["k0"] - 6.31e5) / 6.31e5 < 0.01

    # SHA-256 of `design --variant V --pd-flavor F --f0 400e3 --fs 100e3
    # --m M` stdout, for each (variant, PD flavor) pair at m = 1 and 0.7:
    # the params and the prediction report, as the report's JSON writes them
    DESIGN_STDOUT = {
        ("bpsk", "mul_mul", "1"):
            "46aa9278403d4f1bdbb9850b18a5697aa6879a38284c593259ac1cd027ce5d19",
        ("bpsk", "mul_mul", "0.7"):
            "084374262af44b53f49caffb3fe64c458f55c63273334068c87c4aef9ed6799c",
        ("qpsk", "sgn_cross", "1"):
            "fbdfc0d454e15306d4189852da89f826dbf7068391fd35e3cf131f17355efd52",
        ("qpsk", "sgn_cross", "0.7"):
            "c3a4f60960d56db4917cd7e3438e9dccfa86266364120527ff2b50b66418edb1",
        ("mod_bpsk", "complex_phase", "1"):
            "53cae47b68e7a79d0ce34498350716c8ba9dc61b007b84b3d8f9e906e07f3c00",
        ("mod_bpsk", "complex_phase", "0.7"):
            "53cae47b68e7a79d0ce34498350716c8ba9dc61b007b84b3d8f9e906e07f3c00",
        ("mod_bpsk", "complex_imag", "1"):
            "684414b166669c98aa094c5b57e4db93b1dd365466a2dbafdb7d69239fac27b2",
        ("mod_bpsk", "complex_imag", "0.7"):
            "60b344914c91f0c77df18d14111c6136792efb8428b7a3189981c1c9ececb845",
        ("mod_qpsk", "complex_phase", "1"):
            "b8f7907221631cb52eba6d1923941dc36291fde235569231dcd9a113217b1dc6",
        ("mod_qpsk", "complex_phase", "0.7"):
            "b8f7907221631cb52eba6d1923941dc36291fde235569231dcd9a113217b1dc6",
        ("mod_qpsk", "complex_imag", "1"):
            "d7eb6fbd8c79e4ad0d666f5bcdfe6f1e5dbda86460c8c371675d916f0bbc2fbd",
        ("mod_qpsk", "complex_imag", "0.7"):
            "423e3325068764f78f64fed7be059c6f41efd30285e37f48ac861242c417548f",
    }

    @pytest.mark.parametrize("variant,flavor,m", sorted(DESIGN_STDOUT))
    def test_stdout_digest(self, capsys, variant, flavor, m):
        assert main(["design", "--variant", variant, "--pd-flavor", flavor,
                     "--f0", "400e3", "--fs", "100e3", "--m", m]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.DESIGN_STDOUT[(variant, flavor, m)]

    def test_missing_f0_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["design", "--variant", "bpsk", "--fs", "100e3"])
        assert err.value.code == 2

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["design", "--variant", "bpsk", "--f0", "50e3", "--fs", "100e3"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--f0", "inf"), ("--tau1", "inf"), ("--tau1", "nan"), ("--m", "inf"),
        ("--fs", "nan"), ("--ratio", "nan"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, flag, value):
        # a repeated flag overrides the earlier value
        out = tmp_path / "p.json"
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     flag, value, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", DESIGN_EXTREMES)
    def test_extreme_number_exits_0_or_2(self, tmp_path, capsys, flag, value):
        # a derived constant that overflows, underflows or vanishes names
        # itself; a run that succeeds writes finite values only
        out = tmp_path / "p.json"
        rc = main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                   f"{flag}={value}", "-o", str(out)])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert captured.err.startswith("error:") and captured.out == ""
            assert not out.exists()
        else:
            assert_finite_json(out.read_text())
        if (flag, value) in DESIGN_NAMED:
            assert captured.err.startswith(f"error: derived constant {DESIGN_NAMED[flag, value]} = ")


class TestPredictCommand:
    def test_gains_underflowing_omega_n_exit_2(self, tmp_path, capsys):
        # lock_time divided by omega_n = 0.0 (a ZeroDivisionError, exit 1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(TINY_GAINS))
        assert main(["predict", "--params", str(path), "--variant", "bpsk"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: derived constant omega_n = 0.0 is out of range")
        assert captured.out == ""

    def test_report_from_params_file(self, tmp_path, capsys):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "bpsk"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["prediction"]["t_l"] == pytest.approx(25e-6, rel=0.02)
        assert out["prediction"]["delta_omega_p"] > 1e6

    def test_modified_unbounded(self, tmp_path, capsys):
        assert main(["design", "--variant", "mod_bpsk", "--f0", "400e3",
                     "--fs", "100e3", "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "mod_bpsk"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["prediction"]["delta_omega_p"] == "unbounded"

    def test_leadlag_flag_emits_hold_in(self, tmp_path, capsys):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "bpsk", "--leadlag", "1e-4,2e-5,1e6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["leadlag_hold_in"]["case"] == "wide-lpf"
        assert out["leadlag_hold_in"]["intervals"][0][1] > 0

    # SHA-256 of `predict --params <designed bpsk> --variant bpsk --leadlag
    # L` stdout for one lead-lag case each: the report and the hold-in
    # intervals as the JSON writes them
    LEADLAG_STDOUT = {
        "1e-4,2e-5,1e6": ("wide-lpf",
                          "a1778fe0248e8cb780a4662d0af0c85acab74a8678d884145feef51c5092d307"),
        "1e-4,2e-5,3.99e4": ("narrow-lpf-full",
                             "899e9261840d956df1141a64be02458eb0c588c6ba803e3dc6e23c8f89d1105d"),
        "1e-4,2e-5,1e4": ("narrow-lpf-split",
                          "196e19fe700e4cdd4b934b2471fb124deb45ba6fba49391be5aa189787ccc480"),
    }

    @pytest.mark.parametrize("leadlag", sorted(LEADLAG_STDOUT))
    def test_leadlag_stdout_digest(self, tmp_path, capsys, leadlag):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "bpsk", "--leadlag", leadlag]) == 0
        out = capsys.readouterr().out
        case, digest = self.LEADLAG_STDOUT[leadlag]
        assert json.loads(out)["leadlag_hold_in"]["case"] == case
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("leadlag", ["inf,1e-5,1e6", "1e-4,2e-5,nan", "1e-4,nan,1e6"])
    def test_non_finite_leadlag_exits_2(self, tmp_path, capsys, leadlag):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "bpsk", "--leadlag", leadlag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("leadlag", ["1e-4,2e-5", "1e-4,2e-5,1e6,1e6", "a,b,c"])
    def test_malformed_leadlag_names_the_flag(self, tmp_path, capsys, leadlag):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        assert main(["predict", "--params", str(tmp_path / "p.json"),
                     "--variant", "bpsk", "--leadlag", leadlag]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --leadlag takes TAU1,TAU2,OMEGA3, got {leadlag!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", EXTREME_VALUES)
    @pytest.mark.parametrize("field", range(3), ids=["tau1", "tau2", "omega3"])
    def test_extreme_leadlag_exits_0_or_2(self, tmp_path, capsys, field, value):
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(tmp_path / "p.json")]) == 0
        capsys.readouterr()
        leadlag = ["1e-4", "2e-5", "1e6"]
        leadlag[field] = value
        rc = main(["predict", "--params", str(tmp_path / "p.json"), "--variant", "bpsk",
                   "--leadlag=" + ",".join(leadlag)])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert captured.err.startswith("error:") and captured.out == ""
        else:
            assert_finite_json(captured.out)
        if field == 1 and value in ("5e-324", "1e-320"):
            assert "derived constant tau1*tau2 underflows to 0" in captured.err

    @pytest.mark.parametrize("content,named", [
        ([1, 2], "JSON object"),
        ({**DESIGN_PARAMS, "tau2": "x"}, "tau2"),
        ({k: v for k, v in DESIGN_PARAMS.items() if k != "k0"}, "k0"),
        ({"schema": 1, "params": STATED_NORMALIZATION}, "omega_n"),
    ], ids=["not-object", "gain-str", "gain-missing", "stated-omega_n-zeta"])
    def test_bad_params_file_exits_2(self, tmp_path, capsys, content, named):
        path = write_cfg(tmp_path, content, "p.json")
        assert main(["predict", "--params", path, "--variant", "bpsk"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


class TestSimulateCommand:
    def test_signal_run_and_manifest(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_SIGNAL_CFG)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "-o", out]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["summary"]["locked"] is True
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["config_hash"]) == 64

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_SIGNAL_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "-o", out1]) == 0
        assert main(["simulate", "--config", cfg, "-o", out2]) == 0
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "nois_level": 0.1})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2

    def test_missing_schema_rejected(self, tmp_path, capsys):
        bad = {k: v for k, v in BASE_SIGNAL_CFG.items() if k != "schema"}
        cfg = write_cfg(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2

    def test_environment_seed_ignored(self, tmp_path, capsys, monkeypatch):
        # the config file is the run's whole input: a seed in the
        # environment changes no artifact
        cfg = write_cfg(tmp_path, BASE_SIGNAL_CFG)
        runs = []
        for name, seed in (("bare", None), ("env", "0x1234")):
            if seed is not None:
                monkeypatch.setenv("COSTAS_LAB_SEED", seed)
            assert main(["simulate", "--config", cfg, "-o", str(tmp_path / name)]) == 0
            runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert runs[0] == runs[1]
        assert set(runs[0]) == {"timeseries.csv", "summary.json", "manifest.json"}

    def test_offset_flag_refused(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_SIGNAL_CFG)
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", cfg, "--delta-f0", "70e3", "-o", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_phase_fidelity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "schema": 1, "fidelity": "phase", "variant": "bpsk",
            "f0": 400e3, "f_symbol": 100e3, "delta_f0": 10e3,
            "t_end": 3e-4,
        })
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["locked"] is True
        header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,theta_e"

    def test_phase_rhs_is_the_bound_home_function(self, tmp_path, capsys, monkeypatch):
        given = []

        def spy(rhs, *args):
            given.append(rhs)
            return ode.integrate(rhs, *args)

        monkeypatch.setattr(cli, "integrate", spy)
        cfg = write_cfg(tmp_path, PHASE_CFG)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        [rhs] = given
        assert type(rhs) is MethodType and rhs.__func__ is baseband.classic_rhs
        assert isinstance(rhs.__self__, baseband.ClassicPhaseModel)

    def test_phase_rhs_counted_at_classic_rhs(self, tmp_path, capsys, counted_phase_rhs):
        # the rhs is cli.classic_rhs bound to the model when the run starts,
        # so a rebinding of it sees every call; the lock verdict reads the
        # recorded rate and makes none
        cfg = write_cfg(tmp_path, PHASE_CFG)
        with counted_phase_rhs(cli) as (counts, seen):
            assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["locked"] is True
        assert counts["integrate"] == counts["rhs_calls"] == summary["solver"]["rhs_calls"]
        assert counts["classic_rhs"] == counts["rhs_calls"] > 0
        assert len(seen) == 1

    @pytest.mark.parametrize("fidelity", ["phase", "delay"])
    def test_cycle_slips_past_int64_cells(self, tmp_path, capsys, fidelity):
        # theta_e reaches about 6e296 rad, past 2**63 lock cells: the count
        # is a non-negative int, with no warning from an integer cast
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "fidelity": fidelity, "delta_f0": 1e300,
                                   "t_end": 1e-4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        slips = json.loads((tmp_path / "o" / "summary.json").read_text())["cycle_slips"]
        assert type(slips) is int and slips > 2**63

    def test_delay_fidelity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "schema": 1, "fidelity": "delay", "variant": "bpsk",
            "f0": 400e3, "f_symbol": 100e3, "delta_f0": 10e3,
            "t_end": 3e-4,
        })
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0

    def test_delay_qpsk_bisection_fallback_digest(self, tmp_path, capsys):
        # the chopped-sine PD stalls the fixed-point solve at 1,919 of this
        # run's rhs calls, which the bracket and bisection resolve; at
        # 40 kHz only two stall, and their rates move no byte of the bundle
        cfg = write_cfg(tmp_path, {
            "schema": 1, "fidelity": "delay", "variant": "qpsk",
            "f0": 400e3, "f_symbol": 100e3, "delta_f0": 46e3, "t_end": 3e-4,
        })
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
                   for name in ("trajectory.csv", "summary.json")}
        assert digests == {
            "trajectory.csv": "c413559173e7547bbd5e8294c3a2a46629a0d9901b9ae91a0724d81638f5e6c9",
            "summary.json": "ec15f8f23b379e923d275cf7ca44afcf359cf34590e2e5e1c462ff8915597e5c",
        }

    # RK45 runs from (0, 0.7) whose lock verdicts go both ways: each loop
    # locks at 40 kHz and slips at 300 kHz
    RK45_VERDICTS = {
        ("bpsk", "phase", 40e3): (True, "f6b370888a85e01db82f7ec9ae1f670c"
                                        "bd020f4649f9db1df041d89e9b732add"),
        ("bpsk", "phase", 300e3): (False, "92d30a56a737194e30d3e7a5509b81ab"
                                          "a3831b444af030b788494ebc09038045"),
        ("bpsk", "delay", 40e3): (True, "c4e5753c7e500593a6aa784fb0dc9c57"
                                        "600b6276cee08c4fb3cb9e35742dafa8"),
        ("bpsk", "delay", 300e3): (False, "aa2f1f672e51dca622174f22ec2d074f"
                                          "957b888c196989ac6545043570fd092d"),
        ("qpsk", "phase", 40e3): (True, "b178283d829e631ab9e21660c285f9e0"
                                        "c8ffa6dbd90ed7d589d3b11cb39ec63a"),
        ("qpsk", "phase", 300e3): (False, "dc4a888f0c822521086bc8a91ffdf85c"
                                          "39c90e9d8db1c533c57c93d0aa6cbede"),
    }

    @pytest.mark.parametrize("variant,fidelity,offset", list(RK45_VERDICTS))
    def test_rk45_verdict_summary_digest(self, tmp_path, capsys, variant, fidelity, offset):
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "variant": variant, "fidelity": fidelity,
                                   "delta_f0": offset, "t_end": 1.5e-4, "method": "rk45",
                                   "state0": [0.0, 0.7]})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        blob = (tmp_path / "o" / "summary.json").read_bytes()
        locked, digest = self.RK45_VERDICTS[variant, fidelity, offset]
        assert json.loads(blob)["locked"] is locked
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_delay_fidelity_rejects_modified_loop(self, tmp_path, capsys):
        # the modified loops have no LPF; an omega3 in explicit params used
        # to reach the implicit solver, whose bracket misses the phase PD
        cfg = write_cfg(tmp_path, {
            "schema": 1, "fidelity": "delay", "variant": "mod_bpsk", "m": 0.1,
            "params": {"omega1": 1e5, "omega_free": 0.0, "k0": 1e6, "kd": 1.0,
                       "tau1": 1e-5, "tau2": 1e-5, "omega3": 1e3},
            "t_end": 1e-4,
        })
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "conventional loops only" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_solver_counters_in_summary(self, tmp_path, capsys, method):
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "method": method, "h": 1e-6})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        solver = json.loads((tmp_path / "o" / "summary.json").read_text())["solver"]
        rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert solver["steps"] == len(rows) - 2          # header and t = 0
        per_attempt = 4 if method == "rk4" else 6
        attempts = solver["steps"] + solver["rejected_steps"]
        assert solver["rhs_calls"] == 1 + per_attempt * attempts
        if method == "rk4":
            assert solver["rejected_steps"] == 0

    @pytest.mark.parametrize("controls", [
        {"rtol": math.nan}, {"atol": math.nan}, {"h": math.inf},
        {"t_end": math.nan}, {"t_end": math.inf, "method": "rk4"},
    ], ids=["rtol-nan", "atol-nan", "h-inf", "t_end-nan", "t_end-inf-rk4"])
    def test_non_finite_integrator_controls_exit_2(self, tmp_path, capsys, controls):
        # json writes these as the NaN and Infinity literals the loader accepts
        cfg = write_cfg(tmp_path, {**PHASE_CFG, **controls})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rk4_over_step_cap_exits_2(self, tmp_path, capsys):
        # 1e18 steps: refused from the config, before anything runs
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "method": "rk4", "t_end": 1e9, "h": 1e-9})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert f"above the cap of {ode.MAX_STEPS}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rk45_over_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 10)
        cfg = write_cfg(tmp_path, PHASE_CFG)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: more than 10 RK45 attempts")

    def test_step_size_underflow_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "rtol": 1e-300, "atol": 1e-300})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 3
        assert "step size underflow" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"f_samp": "fast"}, {"duration": "x"}, {"detector": 5}, {"params": [1, 2]},
        {"delta_f0": math.nan}, {"duration": 1e9}, {"params": STATED_NORMALIZATION},
        {"states": 5}, {"states": [[0.1, "x"]]}, {"grid": {"x": [0.0, 1.0, 3], "theta_e": 5}},
        {"state0": 5}, {"state0": [0.0, math.nan]},
    ], ids=["f_samp-str", "duration-str", "detector-int", "params-list", "delta_f0-nan",
            "duration-over-cap", "params-stated-omega_n-zeta", "states-int", "states-str-entry",
            "grid-axis-int", "state0-int", "state0-nan"])
    def test_bad_signal_config_exits_2(self, tmp_path, capsys, bad):
        # duration 1e9 asks for 3.2e15 samples; the cap rejects it before
        # anything is allocated.  states, grid and state0 are keys the
        # signal fidelity does not read; test_bad_phase_config_exits_2
        # type-checks them where they are read
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, **bad})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,bad", [
        ("portrait", {"states": 5}), ("portrait", {"states": [[0.1, "x"]]}),
        ("portrait", {"grid": {"x": [0.0, 1.0, 3], "theta_e": 5}}),
        ("simulate", {"state0": 5}), ("simulate", {"state0": [0.0, math.nan]}),
    ], ids=["states-int", "states-str-entry", "grid-axis-int", "state0-int", "state0-nan"])
    def test_bad_phase_config_exits_2(self, tmp_path, capsys, command, bad):
        # the phase fidelity reads these keys, so their values are type-checked
        base = TestPortraitCommand.PORTRAIT_CFG if command == "portrait" else PHASE_CFG
        cfg = {k: v for k, v in base.items() if k != "states"} | bad
        assert main([command, "--config", write_cfg(tmp_path, cfg), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(bad))}") and "must be" in err
        assert not (tmp_path / "o").exists()

    FIDELITY_CFGS = {"signal": BASE_SIGNAL_CFG, "phase": PHASE_CFG,
                     "delay": {**PHASE_CFG, "fidelity": "delay"}, "averaged": AVERAGED_CFG}
    # a key another fidelity reads, per fidelity
    FOREIGN_KEYS = {"signal": ("t_end", 1e-4), "phase": ("f_samp", 3.2e6),
                    "delay": ("grid", {"x": [0.0, 1.0, 2], "theta_e": [0.0, 1.0, 2]}),
                    "averaged": ("state0", [0.0, 0.0])}

    @pytest.mark.parametrize("fidelity", list(FIDELITY_CFGS))
    @pytest.mark.parametrize("kind", ["other-fidelity", "design"])
    def test_key_the_fidelity_does_not_read_exits_2(self, tmp_path, capsys, fidelity, kind):
        key, value = self.FOREIGN_KEYS[fidelity] if kind == "other-fidelity" else ("design", {})
        cfg = write_cfg(tmp_path, {**self.FIDELITY_CFGS[fidelity], key: value})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: unknown {fidelity} config keys: ['{key}']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("portrait", "method", "rk4"), ("portrait", "h", 0.5), ("portrait", "rtol", 1e-3),
        ("portrait", "atol", 1e-12), ("portrait", "state0", [0.0, 0.3]),
        ("simulate", "states", [[0.0, 0.3]]),
        ("simulate", "grid", {"x": [0.0, 1.0, 2], "theta_e": [0.0, 1.0, 2]}),
    ], ids=["portrait-method", "portrait-h", "portrait-rtol", "portrait-atol", "portrait-state0",
            "simulate-states", "simulate-grid"])
    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, key, value):
        # a phase portrait integrates with its own RK45 settings from its own
        # states, and simulate integrates one state0: neither reads the other's keys
        base = TestPortraitCommand.PORTRAIT_CFG if command == "portrait" else PHASE_CFG
        cfg = write_cfg(tmp_path, {**base, key: value})
        assert main([command, "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: unknown phase config keys: ['{key}']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", list(NUMERIC_FAILURES))
    def test_numeric_failure_exits_3(self, tmp_path, capsys, name):
        # the run fails before the output directory is made
        cfg = write_cfg(tmp_path, NUMERIC_FAILURES[name])
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "new" / "o")]) == 3
        assert capsys.readouterr().err == NUMERIC_FAILURE_LINES[name]
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("name", list(NUMERIC_FAILURES))
    def test_numeric_failure_keeps_existing_bundle(self, tmp_path, capsys, name):
        # a failed run writes nothing into a directory that holds a bundle
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_cfg(tmp_path, PHASE_CFG, "ok.json"),
                     "-o", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_cfg(tmp_path, NUMERIC_FAILURES[name])
        assert main(["simulate", "--config", cfg, "-o", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_initial_rhs_that_raises_exits_2(self, tmp_path, capsys):
        # 2*theta_e overflows to inf, where phi_bpsk's math.sin raises at
        # the initial rhs call: the state is rejected, not the arithmetic
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "t_end": 1e-4,
                                   "state0": [0.0, 1e308]})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "error: right-hand side not finite at the initial state\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [1e308, 0, -1])
    @pytest.mark.parametrize("field", ["freq_window", "freq_tol", "phase_tol"])
    def test_detector_field_range(self, tmp_path, capsys, field, value):
        # README's sim.json with one detector field set: a huge value runs,
        # and a window longer than the run leaves it unlocked; a value at or
        # below 0 could never lock and is rejected
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "duration": 1.5e-3,
                                   "detector": {field: value}})
        out = tmp_path / "o"
        rc = main(["simulate", "--config", cfg, "-o", str(out)])
        if value > 0:
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())["summary"]
            assert summary["locked"] is (field != "freq_window")
        else:
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: detector {field} must be > 0")
            assert not out.exists()

    # SHA-256 of timeseries.csv for the README sim.json, per variant, as the
    # per-value formatter wrote it; the bytes also rest on libm's sin and cos
    README_TIMESERIES = {
        "bpsk": "be4c2c3e64343f2b5b85a3dd11611b285ca00e57fc73340eee40fdfbd146c1be",
        "qpsk": "34cd1647c12cdca609b78f8891fa38de74815a4a0a86c37b87891913c8d5f188",
        "mod_bpsk": "f38f22c24100d40078114fe2c6df7c1b0b7505f9597b528e5996859866d73fd3",
        "mod_qpsk": "39c118e7c204abb3256ee5ab30862760015960b4af5c19060196086cb109d12b",
    }

    @pytest.mark.parametrize("variant", sorted(README_TIMESERIES))
    def test_readme_timeseries_digest(self, tmp_path, capsys, variant):
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "duration": 1.5e-3, "variant": variant})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "timeseries.csv").read_bytes()).hexdigest()
        assert digest == self.README_TIMESERIES[variant]

    # SHA-256 of the other CSVs of README's examples, as the per-value
    # formatter wrote them: trajectory.csv of the sim.json run at phase and
    # delay fidelity (its duration as t_end), portrait.csv of portrait.json,
    # and sweep.csv of the sweep.json sweep, at README's offsets and at
    # offsets that give a nan theory, a nan simulation and an unlocked row
    README_ODE = {
        "phase": "9c2b843be8f5dad2c06ce9c45728f0f7cb1ef9370f2172cbe9e192b80caf8712",
        "delay": "368b7ed79bcf8244289300baf54940d78c32b93c51eae3455a4c30c8c14d9c74",
    }
    README_PORTRAIT = "af28c64810cc581d990c922c694f3c6c5e9ade4dc10f592bb175703a20e3bd77"
    README_SWEEP = {
        "50e3,70e3,100e3": "cd5c39b9be79ba0240e1fb1758a2efc66868abf0bca48ba712f7df0b96ec7a7c",
        "5e3,50e3,300e3": "af73b24ed1025158435fe0ed8a1e1c501c3581d8d4d00555bb1dac7e3ed744f4",
    }

    @pytest.mark.parametrize("fidelity", sorted(README_ODE))
    def test_readme_trajectory_digest(self, tmp_path, capsys, fidelity):
        cfg = {k: v for k, v in BASE_SIGNAL_CFG.items() if k not in ("f_samp", "duration")}
        cfg = write_cfg(tmp_path, {**cfg, "fidelity": fidelity, "t_end": 1.5e-3})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == self.README_ODE[fidelity]

    def test_readme_portrait_digest(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TestPortraitCommand.PORTRAIT_CFG)
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "portrait.csv").read_bytes()).hexdigest()
        assert digest == self.README_PORTRAIT

    @pytest.mark.parametrize("offsets", sorted(README_SWEEP))
    def test_readme_sweep_digest(self, tmp_path, capsys, offsets):
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "duration": 1.5e-3})
        assert main(["sweep", "--config", cfg, "--offsets", offsets,
                     "-o", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "sweep.csv").read_bytes()).hexdigest()
        assert digest == self.README_SWEEP[offsets]

    # SHA-256 of the JSON files of README's examples, which cli shapes:
    # summary.json and manifest.json of sim.json at each simulate fidelity
    # (its duration as t_end at phase and delay fidelity, without f_samp
    # and duration at averaged fidelity) and of sim.json on mod_qpsk with a
    # prbs_seed, and manifest.json of the sweep.json sweep and of
    # portrait.json (their CSVs are pinned above); a None drops the key
    README_BUNDLES = {
        "signal": (["simulate"], {}, {
            "summary.json": "7070a39635f326e68fad9ae8722c84755cf21035751288639370540d8e4c5467",
            "manifest.json": "6fd7056e4cd5665a9b1cab7460910e946c72d4861b317c876d7e72a334d08a32"}),
        "signal-mod_qpsk-seed": (["simulate"], {"variant": "mod_qpsk", "prbs_seed": 7}, {
            "summary.json": "bedea661efc855c1466a7b19e0d17f8b01ecf863700bf23b6ec8abe541078eb9",
            "manifest.json": "6cd7d998ca1c4f46cffa2a691dd8b83c99cd44e605f664dad35c6ab0e007fafd"}),
        "phase": (["simulate"], {"fidelity": "phase", "t_end": 1.5e-3}, {
            "summary.json": "a70e30787c6e3369953d534a41494f84e44ba9368b7b8529083e65f0086e3e99",
            "manifest.json": "a5b3431328275616bc963c066f5c593b71f0769ef41675de0741214fd35e48d3"}),
        "delay": (["simulate"], {"fidelity": "delay", "t_end": 1.5e-3}, {
            "summary.json": "b2f61b580f51f87c4fb89abca7009ff031d0bbb5e42eaa1224ad613ef91e6062",
            "manifest.json": "617584ddd9f4683bc3ad47b3d3c688e69c2cf90598555f96e478f9b0fc2f11b3"}),
        "averaged": (["simulate"], {"fidelity": "averaged"}, {
            "summary.json": "6f452acab3b958bade4c47be5b567ad976418fa1c0380c3591c7498adef3ce08",
            "manifest.json": "08b12004dd544b793d880629d63396f9bafe7bd05ba008c86c5232ab67fc397a"}),
        "sweep": (["sweep", "--offsets", "50e3,70e3,100e3"], {"delta_f0": None}, {
            "manifest.json": "bfb10544a40beee61e86a312bfc58308a7aadf872ed39b3654624cf68c8099de"}),
        "portrait": (["portrait"], None, {
            "manifest.json": "5880ade8be011fe50e58996eb2ef92cd8e90eefca59919f39a30ec2f5215abac"}),
    }

    @pytest.mark.parametrize("name", list(README_BUNDLES))
    def test_readme_bundle_json_digest(self, tmp_path, capsys, name):
        (command, *flags), change, digests = self.README_BUNDLES[name]
        if change is None:
            cfg = TestPortraitCommand.PORTRAIT_CFG
        else:
            cfg = {**BASE_SIGNAL_CFG, "duration": 1.5e-3, **change}
            if cfg["fidelity"] != "signal":   # the keys the ODE fidelities do not read
                del cfg["f_samp"], cfg["duration"]
            cfg = {k: v for k, v in cfg.items() if v is not None}
        assert main([command, "--config", write_cfg(tmp_path, cfg), *flags,
                     "-o", str(tmp_path / "o")]) == 0
        assert {f: hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest()
                for f in digests} == digests

    # the same for the modified loops at a carrier phase of 2.1 rad under
    # both Hilbert realizations; the delayed image starts n/4 samples
    # before t = 0, on the first symbol
    MODIFIED_TIMESERIES = {
        ("mod_bpsk", "delay"): "2ba756e1829110c550a1805471a4c209d8ba492989b08416be8983f9fa68c4b3",
        ("mod_bpsk", "ideal"): "f0289bb11dbeca44b3f50a6aa08e49b4d7aa4bd24f12e16d33fd8c7e3954dd0b",
        ("mod_qpsk", "delay"): "1edf4bb70d829ce77550fa85aecf2a261a7ef678ce3c61b49e84dbc0cde7bdab",
        ("mod_qpsk", "ideal"): "dc8a70c067fac110cbd861ccdb60aef7bd0df6c08c9ac9270321b421823823a4",
    }

    @pytest.mark.parametrize("variant,hilbert_mode", sorted(MODIFIED_TIMESERIES))
    def test_modified_timeseries_digest(self, tmp_path, capsys, variant, hilbert_mode):
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "duration": 1.5e-3, "variant": variant,
                                   "hilbert_mode": hilbert_mode, "theta1_0": 2.1})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        digest = hashlib.sha256((tmp_path / "o" / "timeseries.csv").read_bytes()).hexdigest()
        assert digest == self.MODIFIED_TIMESERIES[(variant, hilbert_mode)]

    def test_design_params_round_trip(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        assert main(["design", "--variant", "bpsk", "--f0", "400e3", "--fs", "100e3",
                     "-o", str(pfile)]) == 0
        designed = json.loads(pfile.read_text())["params"]
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "params": designed})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        assert main(["predict", "--params", str(pfile), "--variant", "bpsk"]) == 0
        retuned = core.LoopParams.from_dict(designed).with_offset(
            2 * math.pi * BASE_SIGNAL_CFG["delta_f0"])
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["params"] == {**designed, "omega_free": retuned.omega_free,
                                     "delta_omega0": retuned.delta_omega0}

    def test_lpf_corner_beyond_nyquist_exits_2(self, tmp_path, capsys):
        # omega3 = 1.2e7 rad/s sits above Nyquist at 3.2 MHz (omega3*T/2 > pi/2)
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "params": {**DESIGN_PARAMS,
                                                                  "omega3": 1.2e7}})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot be prewarped" in err
        assert not (tmp_path / "o").exists()

    def test_rejected_config_leaves_no_outdir(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**PHASE_CFG, "fidelity": "bogus"})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert "unknown fidelity" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_averaged_fidelity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, AVERAGED_CFG)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["pull_in_time_formula"] == pytest.approx(204e-6, rel=0.05)
        assert summary["pull_in_time_numeric"] == pytest.approx(
            summary["pull_in_time_formula"], rel=0.25
        )

    def test_averaged_fidelity_names_underflowing_omega_n(self, tmp_path, capsys):
        # the lock-in range underflowed to 0.0 with omega_n, and the line
        # named only the averaged model's delta_omega > 0
        cfg = write_cfg(tmp_path, {**AVERAGED_CFG, "delta_f0": 1e3, "params": TINY_GAINS})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: derived constant omega_n = 0.0 is out of range")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variant", ["mod_bpsk", "mod_qpsk"])
    def test_averaged_fidelity_refuses_imag_flavor(self, tmp_path, capsys, variant):
        # the averaged constants are the complex_phase PD's; the sine-shaped
        # complex_imag PD would put its formula beside a complex_phase integral
        cfg = write_cfg(tmp_path, {**AVERAGED_CFG, "variant": variant,
                                   "pd_flavor": "complex_imag"})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not complex_imag" in err
        assert not (tmp_path / "o").exists()

    # The beat-note formulas at float-range inputs, each of which raised
    # ZeroDivisionError or OverflowError (a traceback, exit 1)
    @pytest.mark.parametrize("variant", ["bpsk", "qpsk", "mod_bpsk", "mod_qpsk"])
    def test_averaged_fidelity_refuses_infinite_offset(self, tmp_path, capsys, variant):
        # 2*pi*1.7e308 overflows to inf, and the slope 1/inf became a divisor
        assert_derived_refusal(tmp_path, capsys, ["simulate"], {
            **AVERAGED_CFG, "variant": variant, "delta_f0": 1.7e308}, "delta_omega0 = inf")

    @pytest.mark.parametrize("variant", ["mod_bpsk", "mod_qpsk"])
    def test_averaged_fidelity_refuses_overflowing_offset_squared(self, tmp_path, capsys,
                                                                  variant):
        # the integral overflows before the formula's offset^2 does
        assert_derived_refusal(tmp_path, capsys, ["simulate"], {
            **AVERAGED_CFG, "variant": variant, "delta_f0": 1e300}, "pull_in_time_numeric = inf")

    @pytest.mark.parametrize("m,kd_sq", [(1e300, "inf"), (1e-300, "0.0")])
    def test_averaged_fidelity_refuses_kd_squared_out_of_range(self, tmp_path, capsys, m,
                                                               kd_sq):
        assert_derived_refusal(tmp_path, capsys, ["simulate"], {
            **AVERAGED_CFG, "variant": "qpsk", "delta_f0": 50e3, "m": m}, f"kd^2 = {kd_sq}")

    def test_averaged_fidelity_refuses_underflowing_slope(self, tmp_path, capsys):
        # K0*ud/tau1 underflows where tau1 is 1e300
        cfg = {k: v for k, v in AVERAGED_CFG.items() if k not in ("f0", "f_symbol")}
        params = {**DESIGN_GAINS, "k0": 1e6, "kd": 1.0, "tau1": 1e300, "tau2": 4e-6,
                  "omega3": 1.2e6}
        assert_derived_refusal(tmp_path, capsys, ["simulate"], {**cfg, "params": params},
                               "-d(delta_omega)/dt = ")

    def test_blow_up_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            **BASE_SIGNAL_CFG,
            "params": {
                "omega1": 2 * math.pi * 400e3, "omega_free": 2 * math.pi * 400e3,
                "k0": 1e30, "kd": 1.0, "tau1": 2e-5, "tau2": 4e-6,
                "omega3": 1256000.0,
            },
        })
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 3

    def test_gains_underflowing_omega_n_refused_at_signal_fidelity(self, tmp_path, capsys):
        # the default detector's freq_window divided by omega_n = 0.0 (a
        # ZeroDivisionError, exit 1); the phase model has its K0 fallback
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "params": TINY_GAINS})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: loop gains underflow omega_n to 0.0: "
                                           "no default detector freq_window\n")
        assert not (tmp_path / "o").exists()
        phase = {k: v for k, v in PHASE_CFG.items() if k not in ("f0", "f_symbol")}
        cfg = write_cfg(tmp_path, {**phase, "params": TINY_GAINS})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 0

    OVERFLOW_PARAMS = {"omega1": 2 * math.pi * 400e3, "omega_free": 2 * math.pi * 400e3,
                       "k0": 1.7e308, "kd": 1.0, "tau1": 2e-5, "tau2": 4e-6,
                       "omega3": 1256000.0}

    def test_given_detector_replaces_the_overflowing_default(self, tmp_path, capsys):
        # omega_n overflows, so the default freq_window would be 0.0: a
        # config that gives all three fields reaches the loop and blows up
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "params": self.OVERFLOW_PARAMS,
                                   "detector": {"freq_window": 1e-5, "freq_tol": 1.0,
                                                "phase_tol": 0.1}})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: non-finite loop state")
        assert not (tmp_path / "o").exists()

    def test_missing_detector_field_defaults_from_overflowing_params(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**BASE_SIGNAL_CFG, "params": self.OVERFLOW_PARAMS,
                                   "detector": {"freq_tol": 1.0}})
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: detector freq_window must be > 0, got 0.0\n"
        assert not (tmp_path / "o").exists()


# An offset whose rad/s value (2*pi*1e308) overflows is a config error at
# every entry that reads one: LoopParams.with_offset refuses it before a run
# can end in a numeric failure
@pytest.mark.parametrize("argv,cfg", [
    (["simulate"], BASE_SIGNAL_CFG), (["simulate"], PHASE_CFG),
    (["simulate"], {**PHASE_CFG, "fidelity": "delay"}), (["simulate"], AVERAGED_CFG),
    (["sweep", "--offsets", "1e308"], SWEEP_CFG),
    (["portrait"], {**PHASE_CFG, "states": [[0.0, 0.0]]}),
], ids=["signal", "phase", "delay", "averaged", "sweep", "portrait"])
def test_offset_past_the_float_range_exits_2(tmp_path, capsys, argv, cfg):
    if "sweep" not in argv:
        cfg = {**cfg, "delta_f0": 1e308}
    assert_derived_refusal(tmp_path, capsys, argv, cfg, "delta_omega0 = inf is out of range")


# An offset below half an ulp of the designed omega1 (2.3e-10 rad/s at
# 400 kHz) retuned the loop to a zero offset: the averaged fidelity refused
# it as a derived zero, and the signal fidelity ran at zero offset
@pytest.mark.parametrize("cfg", [{**AVERAGED_CFG, "delta_f0": 1e-300},
                                 {**BASE_SIGNAL_CFG, "delta_f0": 1e-12}],
                         ids=["averaged", "signal"])
def test_offset_below_omega1_resolution_exits_2(tmp_path, capsys, cfg):
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: offset delta_omega0 = {2.0 * math.pi * cfg['delta_f0']!r} "
                          "rad/s is below the resolution of omega1 = ")
    assert len(err.splitlines()) == 1 and not out.exists()


# An offset that omega1's resolution moves by more than REL_TOL relative
# (1e-7 Hz, 6.3e-7 rad/s, retunes about 0.04% off at 400 kHz)
@pytest.mark.parametrize("argv,cfg", [(["simulate"], {**BASE_SIGNAL_CFG, "delta_f0": 1e-7}),
                                      (["sweep", "--offsets", "1e-7"], SWEEP_CFG)],
                         ids=["simulate", "sweep"])
def test_offset_rounded_by_omega1_exits_2(tmp_path, capsys, argv, cfg):
    out = tmp_path / "o"
    assert main([*argv, "--config", write_cfg(tmp_path, cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: offset delta_omega0 = {2.0 * math.pi * 1e-7!r} rad/s is "
                          "too fine for the resolution of omega1 = ")
    assert err.endswith(", more than 1e-09 relative off\n")
    assert len(err.splitlines()) == 1 and not out.exists()


GAINS_WITHOUT_OMEGA3 ={k: v for k, v in DESIGN_GAINS.items() if k != "omega3"}
# (command, the config or params file it reads, its error line): each
# exits 2 and leaves no output directory
REFUSAL_LINES = {
    "delta_f0-int-past-float-range": (
        "simulate", {**BASE_SIGNAL_CFG, "delta_f0": 10**400},
        f"error: delta_f0 must be finite, got {10**400!r}\n"),
    "params-unknown-key": (
        "simulate", {**BASE_SIGNAL_CFG, "params": {**DESIGN_GAINS, "k1": 1.0}},
        "error: unknown params keys: ['k1']\n"),
    "prbs_seed-float": (
        "simulate", {**BASE_SIGNAL_CFG, "prbs_seed": 1.5},
        "error: prbs_seed must be an integer, got 1.5\n"),
    "config-list": ("simulate", [1, 2], "error: config must be a JSON object\n"),
    "no-fidelity": (
        "simulate", {k: v for k, v in PHASE_CFG.items() if k != "fidelity"},
        "error: missing config keys: ['fidelity']\n"),
    "no-loop-constants": (
        "simulate", {k: v for k, v in PHASE_CFG.items() if k not in ("f0", "f_symbol")},
        "error: config needs either params{} or f0 + f_symbol for design\n"),
    "data_mode": (
        "simulate", {**BASE_SIGNAL_CFG, "data_mode": "zeros"},
        "error: unknown data_mode 'zeros'\n"),
    "signal-without-omega3": (
        "simulate", {**BASE_SIGNAL_CFG, "params": GAINS_WITHOUT_OMEGA3},
        "error: conventional loops need the LPF corner omega3\n"),
    # a subnormal k0 leaves omega_n at 5e-160 rad/s and underflows the lock-in range to 0.0
    "averaged-lock-in-range-underflow": (
        "simulate", {**AVERAGED_CFG, "params": {**DESIGN_GAINS, "k0": 5e-324}},
        "error: derived constant lock-in range = 0.0 is out of range: it must be finite "
        "and at least 2.2250738585072014e-308\n"),
    "predict-without-omega3": (
        "predict", GAINS_WITHOUT_OMEGA3,
        "error: conventional-loop pull-in needs an LPF corner omega3\n"),
    # lock-in 5.0e6 rad/s, pull-in 1.4e6 rad/s
    "predict-lock-in-past-pull-in": (
        "predict", {**DESIGN_GAINS, "k0": 1e13, "kd": 1.0, "tau1": 1.0, "tau2": 1e-6,
                    "omega3": 2e6},
        "error: lock-in range exceeds pull-in range; degenerate design\n"),
}


@pytest.mark.parametrize("name", list(REFUSAL_LINES))
def test_refusal_line(tmp_path, capsys, name):
    command, content, line = REFUSAL_LINES[name]
    path, out = write_cfg(tmp_path, content), tmp_path / "o"
    if command == "predict":
        argv = ["predict", "--params", path, "--variant", "bpsk"]
    else:
        argv = [command, "--config", path, "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    path, out = tmp_path / "absent.json", tmp_path / "o"
    assert main(["simulate", "--config", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}: ") and "No such file" in err
    assert len(err.splitlines()) == 1 and not out.exists()


class TestSweepCommand:
    @pytest.mark.parametrize("variant,divisor", [("bpsk", "2*C*zeta*omega_n^3"),
                                                 ("mod_bpsk", "zeta*omega_n^3")])
    def test_gains_underflowing_omega_n_exit_2(self, tmp_path, capsys, variant, divisor):
        # the theory column's pull-in-time formula divided by 0.0 (a
        # ZeroDivisionError, exit 1)
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "variant": variant, "params": TINY_GAINS})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--offsets", "50e3", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: derived constant {divisor} = 0.0 is out of range")
        assert not out.exists()

    def test_gains_overflowing_omega_n_cubed_exit_2(self, tmp_path, capsys):
        # omega_n**3 in the theory column's formula raised OverflowError (a
        # traceback, exit 1); bpsk with the same gains exits 3, its row
        # inside the lock-in range
        params = {**DESIGN_GAINS, "k0": 1e250, "kd": 1.0}
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "variant": "mod_bpsk", "params": params})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--offsets", "50e3", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: derived constant zeta*omega_n^3 = inf is out of range")
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["mod_bpsk", "mod_qpsk"])
    def test_offset_squared_overflowing_exit_2(self, tmp_path, capsys, variant):
        # the theory column's offset**2 raised OverflowError (a traceback,
        # exit 1)
        assert_derived_refusal(tmp_path, capsys, ["sweep", "--offsets", "1e300"],
                               {**SWEEP_CFG, "variant": variant}, "delta_omega0^2 = inf")

    def test_rows_in_order(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "duration": 1.5e-3})
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--offsets", "50e3,70e3", "-o", out]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delta_f0_hz,t_p_theory_s,t_p_sim_s,locked"
        assert len(lines) == 3
        f1 = [float(x) for x in lines[1].split(",")]
        assert f1[0] == 50e3
        assert f1[1] == pytest.approx(33e-6, rel=0.05)
        assert f1[3] == 1.0

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("bad,named", [
        ({"f_symbol": 0}, "f_symbol"), ({"f_symbol": -100e3}, "f_symbol"),
        ({"f0": -400e3}, "f_carrier"),
    ], ids=["f_symbol-zero", "f_symbol-negative", "f0-negative"])
    def test_source_rates_refused_beside_params(self, tmp_path, capsys, command, bad, named):
        # a config that carries params skips design()'s rate checks: the
        # source refuses the rates itself, before any output is made
        base = BASE_SIGNAL_CFG if command == "simulate" else SWEEP_CFG
        cfg = write_cfg(tmp_path, {**base, "params": DESIGN_GAINS, **bad})
        offsets = ["--offsets", "50e3"] if command == "sweep" else []
        assert main([command, "--config", cfg, *offsets, "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_jobs_flag_refused(self, tmp_path, capsys):
        # a sweep runs its rows in order in one process
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", cfg, "--offsets", "50e3", "--jobs", "2",
                  "-o", str(tmp_path / "o")])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_offset_key_refused(self, tmp_path, capsys):
        # each row's offset comes from --offsets; the config's would go unread
        cfg = write_cfg(tmp_path, BASE_SIGNAL_CFG)
        assert main(["sweep", "--config", cfg, "--offsets", "50e3",
                     "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: unknown signal config keys: ['delta_f0']\n"
        assert not (tmp_path / "o").exists()

    def test_offset_inside_lock_in_has_no_theory_value(self, tmp_path, capsys):
        # lock-in of the reference bpsk design is 19.9 kHz
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "duration": 2e-4})
        assert main(["sweep", "--config", cfg, "--offsets", "5e3,50e3",
                     "-o", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        inside = lines[1].split(",")
        assert float(inside[0]) == 5e3
        assert inside[1] == "nan"
        assert float(lines[2].split(",")[1]) == pytest.approx(33e-6, rel=0.05)

    def test_duration_over_sample_cap_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**SWEEP_CFG, "duration": 1e9})
        assert main(["sweep", "--config", cfg, "--offsets", "50e3",
                     "-o", str(tmp_path / "o")]) == 2
        assert "above the cap" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_offset_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--offsets", "50e3,nan",
                     "-o", str(tmp_path / "o")]) == 2
        assert "offset must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_f_samp_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {k: v for k, v in SWEEP_CFG.items() if k != "f_samp"})
        assert main(["sweep", "--config", cfg, "--offsets", "50e3",
                     "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: missing signal config keys: ['f_samp']\n"
        assert not (tmp_path / "o").exists()

    def test_empty_offsets_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--offsets", "", "-o",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: no offsets given\n"


class TestPortraitCommand:
    PORTRAIT_CFG = {
        "schema": 1, "fidelity": "phase", "variant": "bpsk",
        "params": {
            "omega1": 89.45, "omega_free": 0.0, "k0": 1000.0, "kd": 1.0,
            "tau1": 1000.0 / 144.0, "tau2": 0.2 / 12.0,
        },
        "t_end": 15.0,
        "states": [[0.6211805555555555, 0.3], [0.0125, -3.4035]],
    }

    def test_classified_bundle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.PORTRAIT_CFG)
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "portrait.csv").read_text().splitlines()
        assert lines[0] == "t,x,theta_e,class"
        classes = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert {"eq", "cycle"} <= classes

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**self.PORTRAIT_CFG, "states": []})
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: portrait states[] is empty\n"

    def test_missing_t_end_exits_2(self, tmp_path, capsys):
        cfg_data = {k: v for k, v in self.PORTRAIT_CFG.items() if k != "t_end"}
        cfg = write_cfg(tmp_path, cfg_data)
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: missing phase config keys: ['t_end']\n"

    def test_wrong_fidelity_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**self.PORTRAIT_CFG, "fidelity": "signal"})
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 2

    def test_grid_config(self, tmp_path, capsys):
        cfg_data = {k: v for k, v in self.PORTRAIT_CFG.items() if k != "states"}
        cfg_data["grid"] = {"x": [0.0, 0.7, 3], "theta_e": [-3.5, 0.5, 2]}
        cfg_data["t_end"] = 8.0
        cfg = write_cfg(tmp_path, cfg_data)
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "portrait.csv").read_text().splitlines()
        assert len(lines) > 6

    def test_states_and_grid_together_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**self.PORTRAIT_CFG,
                                   "grid": {"x": [0.0, 0.7, 3], "theta_e": [-3.5, 0.5, 2]}})
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "error: portrait config needs exactly one of grid{} and states[]\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape", [
        {"states": [[0.0, 0.0]] * 5},
        {"grid": {"x": [0.0, 1.0, 3], "theta_e": [0.0, 1.0, 2]}},
        {"grid": {"x": [0.0, 1.0, 0], "theta_e": [0.0, 1.0, 5]}},
    ], ids=["states", "grid", "grid-axis"])
    def test_state_count_over_cap_exits_2(self, tmp_path, capsys, monkeypatch, shape):
        monkeypatch.setattr(cli, "MAX_PORTRAIT_STATES", 4)
        monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("grid built"))
        cfg = write_cfg(tmp_path, {k: v for k, v in self.PORTRAIT_CFG.items()
                                   if k != "states"} | shape)
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert "above the cap of 4 (cli.MAX_PORTRAIT_STATES)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("axis,count", [("x", 2.5), ("theta_e", -1), ("x", 0),
                                            ("theta_e", 2.0)])
    def test_grid_count_not_a_positive_integer_exits_2(self, tmp_path, capsys, axis, count):
        # 2.5 ran 2 points per axis; -1 stopped in np.linspace
        grid = {"x": [0.0, 0.7, 2], "theta_e": [-3.5, 0.5, 2]}
        grid[axis] = [*grid[axis][:2], count]
        cfg = write_cfg(tmp_path, {k: v for k, v in self.PORTRAIT_CFG.items()
                                   if k != "states"} | {"grid": grid})
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "new" / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: grid.{axis}[2] must be an integer >= 1, got {count!r}\n"
        assert not (tmp_path / "new").exists()

    def test_failure_after_first_trajectory_leaves_no_output(self, tmp_path, capsys):
        # the second state's rate is -inf: rejected after the first
        # trajectory's rows were written
        states = [self.PORTRAIT_CFG["states"][0], [1e308, 0.0]]
        cfg = write_cfg(tmp_path, {**self.PORTRAIT_CFG, "states": states})
        assert main(["portrait", "--config", cfg, "-o", str(tmp_path / "new" / "o")]) == 2
        assert "not finite at the initial state" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        out = tmp_path / "o"
        # an earlier bundle in the directory stays as it was
        assert main(["portrait", "--config", write_cfg(tmp_path, self.PORTRAIT_CFG, "ok.json"),
                     "-o", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["portrait", "--config", cfg, "-o", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# the averaged fidelity's loop inputs, and float-range values for each
AVERAGED_GRID_KEYS = ("delta_f0", "m", "tau1", "omega_t_ratio", "f0", "f_symbol")
FLOAT_RANGE_VALUES = (0, -1, 5e-324, 1e-300, 1e300, 1.7e308)


def test_averaged_and_theory_float_range_grid(tmp_path, capsys):
    """Every averaged config with one of AVERAGED_GRID_KEYS set to one of
    FLOAT_RANGE_VALUES, on each loop, and a sweep at a 1e300 Hz offset on
    each loop, ends with exit 0, 2 or 3; a failed run prints an error line,
    no traceback, and leaves no output directory."""
    variants = [tag.value for tag in VariantTag]
    runs = [(["simulate"], {**AVERAGED_CFG, "variant": variant, key: value})
            for variant in variants for key in AVERAGED_GRID_KEYS for value in FLOAT_RANGE_VALUES]
    runs += [(["sweep", "--offsets", "1e300"], {**SWEEP_CFG, "variant": variant})
             for variant in variants]
    assert len(runs) == 148
    for i, (argv, cfg) in enumerate(runs):
        out = tmp_path / f"o{i}"
        code = main([*argv, "--config", write_cfg(tmp_path, cfg), "-o", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (cfg, err)
        if code:
            assert err.startswith(("error:", "numeric failure:")), (cfg, err)
            assert "Traceback" not in err and not out.exists(), cfg


# wrong JSON types, NaN, +-inf, zero and negatives: no draw can ask for a
# long valid run
FUZZ_POOL = ("x", "", True, False, None, [], [1.0, "x"], {}, {"k": 1},
             math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5e5)


def test_config_boundary_fuzz(tmp_path, capsys):
    """One entry of a config replaced by a pool value (a top-level key, or
    a key inside its ``params``, ``detector`` or ``grid`` object), or a key
    the command does not read at the config's fidelity added to it.  The
    configs are README's sim.json at each simulate fidelity, its sweep.json,
    its portrait.json with states and with a grid (at a short t_end) and a
    design params file.  Every run exits 0, 2 or 3 and never raises (a
    KeyError is a program fault, not a config error), an exit 2 leaves no
    output directory, and an added key exits 2."""
    portrait = {**TestPortraitCommand.PORTRAIT_CFG, "t_end": 5e-3}
    grid = {k: v for k, v in portrait.items() if k != "states"} | {
        "grid": {"x": [0.0, 0.7, 2], "theta_e": [-3.5, 0.5, 1]}}
    targets = [
        ("simulate", {**BASE_SIGNAL_CFG, "duration": 1.5e-3,
                      "detector": _defaults(signal_sim.LockDetector, "phase_tol")}),
        ("simulate", PHASE_CFG),
        ("simulate", {"schema": 1, "fidelity": "delay", "variant": "bpsk",
                      "params": DESIGN_GAINS, "delta_f0": 10e3, "t_end": 3e-4}),
        ("simulate", AVERAGED_CFG),
        ("sweep", {**SWEEP_CFG, "duration": 1.5e-3}),
        ("portrait", portrait),
        ("portrait", grid),
        ("predict", DESIGN_PARAMS),
    ]
    table_keys = sorted(set().union(*(r | o for rows in cli._CONFIG_KEYS.values()
                                      for r, o in rows.values())))
    rng = np.random.default_rng(20261018)
    for case in range(400):
        command, base = targets[rng.integers(len(targets))]
        value = FUZZ_POOL[rng.integers(len(FUZZ_POOL))]
        added = command != "predict" and rng.integers(4) == 0
        cfg = dict(base)
        if added:
            required, optional = cli._CONFIG_KEYS[command][base["fidelity"]]
            unread = [k for k in table_keys + ["design"]
                      if k not in cli._SHARED_KEYS | required | optional]
            key = unread[rng.integers(len(unread))]
            cfg[key] = value
        else:
            paths = [(k,) for k in sorted(base)] + [
                (k, sub) for k in sorted(base) if isinstance(base[k], dict)
                for sub in sorted(base[k])]
            key = paths[rng.integers(len(paths))]
            if len(key) == 1:
                cfg[key[0]] = value
            else:
                cfg[key[0]] = {**base[key[0]], key[1]: value}
        path = write_cfg(tmp_path, cfg, f"case{case}.json")
        out = tmp_path / f"o{case}"
        if command == "predict":
            argv = ["predict", "--params", path, "--variant", "bpsk"]
        elif command == "sweep":
            argv = ["sweep", "--config", path, "--offsets", "50e3", "-o", str(out)]
        else:
            argv = [command, "--config", path, "-o", str(out)]
        rc = main(argv)
        assert rc in ((2,) if added else (0, 2, 3)), (command, key, value)
        if rc == 2:
            assert not out.exists(), (command, key, value)
    capsys.readouterr()


def _defaults(cls, *names):
    return {f.name: f.default for f in fields(cls) if f.name in names}


@pytest.mark.parametrize("base,given,artifacts", [
    ({**BASE_SIGNAL_CFG, "variant": "mod_bpsk"},
     {**_defaults(signal_sim.ModulatedSource, "m", "prbs_seed", "theta1_0", "data_mode"),
      **_defaults(signal_sim.DigitalLoop, "hilbert_mode"),
      "detector": _defaults(signal_sim.LockDetector, "phase_tol")},
     ["timeseries.csv", "summary.json"]),
    (PHASE_CFG,
     {**_defaults(PdCharacteristic, "m"),
      **_defaults(ode.IntegratorConfig, "method", "h", "rtol", "atol"), "state0": [0.0, 0.0]},
     ["trajectory.csv", "summary.json"]),
    (AVERAGED_CFG, _defaults(analysis.DesignSpec, "omega_t_ratio", "tau1", "m"),
     ["summary.json"]),
], ids=["signal", "phase", "design-from-f0"])
def test_defaults_single_sourced(tmp_path, capsys, base, given, artifacts):
    """Every optional key written at its dataclass default gives the bytes
    of the config that leaves it out."""
    assert given and not set(given) & set(base)
    runs = []
    for name, cfg in (("bare", base), ("given", {**base, **given})):
        out = tmp_path / name
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                     "-o", str(out)]) == 0
        runs.append([(out / a).read_bytes() for a in artifacts])
    assert runs[0] == runs[1]


def test_config_table_pinned():
    """The keys each command accepts at each fidelity, which README must
    name, and the variant and PD-flavor choices, which must be the enums'
    values."""
    assert cli._SHARED_KEYS == {"schema", "fidelity", "variant", "pd_flavor", "prbs_seed",
                                "params", "f0", "f_symbol", "tau1", "omega_t_ratio", "m"}
    signal = ({"f0", "f_symbol", "f_samp", "duration"},
              {"theta1_0", "data_mode", "hilbert_mode", "detector"})
    ode_keys = ({"t_end"}, {"method", "h", "rtol", "atol", "state0", "delta_f0"})
    assert cli._CONFIG_KEYS == {
        "simulate": {"signal": (signal[0], signal[1] | {"delta_f0"}), "phase": ode_keys,
                     "delay": ode_keys, "averaged": (set(), {"delta_f0"})},
        "sweep": {"signal": signal},
        "portrait": {"phase": ({"t_end"}, {"grid", "states", "delta_f0"})},
    }
    accepted = {(c, f): cli._SHARED_KEYS | r | o
                for c, rows in cli._CONFIG_KEYS.items() for f, (r, o) in rows.items()}
    assert {cf: len(keys) for cf, keys in accepted.items()} == {
        ("simulate", "signal"): 18, ("simulate", "phase"): 18, ("simulate", "delay"): 18,
        ("simulate", "averaged"): 12, ("sweep", "signal"): 17, ("portrait", "phase"): 15}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [k for k in sorted(set().union(*accepted.values())) if f"`{k}`" not in readme] == []
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("design", "predict"):
        choices = {a.dest: a.choices for a in sub.choices[command]._actions}
        assert choices["variant"] == [tag.value for tag in VariantTag]
        assert choices["pd_flavor"] == [flavor.value for flavor in PdFlavor]


def test_readme_library_block_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    report = analysis.predict(analysis.design(analysis.DesignSpec(
        400e3, 100e3, core.CONVENTIONAL_BPSK)), core.CONVENTIONAL_BPSK)
    assert lines[0] == f"{report['lock_in_hz']} {report['pull_in_hz']} True"
    assert len(lines) == 3 and list(tmp_path.iterdir()) == []


PACKAGE_MODULES = ("analysis", "baseband", "cli", "core", "detectors", "ode", "signal_sim")
# the parameter names the Library table quotes as calls: core's lock cell
# floor(...) and stop rule done(lo, hi), the detectors kernel's fn and the
# integrator's rhs
README_PARAMETER_CALLS = {"done", "floor", "fn", "rhs"}


def test_readme_names_resolve():
    """Outside fenced code blocks, every backticked ``<module>.<name>`` of a
    package module (a ``.py`` file name aside) is an attribute of that
    module, and every call ``name(`` in a backticked span of a Library
    table row names an attribute of that row's module, or is one of the
    table's parameter names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    prose = "".join(readme.split("```")[0::2])
    modules = {m: importlib.import_module(f"costas_lab.{m}") for m in PACKAGE_MODULES}
    dotted = re.findall(rf"`({'|'.join(PACKAGE_MODULES)})\.(\w+)", prose)
    assert dotted
    assert [f"{m}.{n}" for m, n in dotted if n != "py" and not hasattr(modules[m], n)] == []
    rows = re.findall(r"^\| `costas_lab\.(\w+)` \|(.*)$", prose, re.MULTILINE)
    assert {m for m, _ in rows} == set(PACKAGE_MODULES) - {"cli"}
    unresolved = {name for m, row in rows for span in re.findall(r"`([^`]*)`", row)
                  for name in re.findall(r"(?<![\w.])(\w+)\(", span)
                  if not hasattr(modules[m], name)}
    assert unresolved == README_PARAMETER_CALLS


@pytest.mark.parametrize("command,cfg", [
    ("simulate", BASE_SIGNAL_CFG), ("simulate", PHASE_CFG),
    ("portrait", TestPortraitCommand.PORTRAIT_CFG),
], ids=["simulate-signal", "simulate-phase", "portrait"])
def test_manifest_hashes_the_config_file(tmp_path, capsys, monkeypatch, command, cfg):
    # the file is the run's whole input, whatever the environment holds
    monkeypatch.setenv("COSTAS_LAB_SEED", "0x1234")
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "-o", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    with open(path) as fh:
        assert manifest["config_hash"] == cli.config_hash(json.load(fh))


# Callers look these functions up on the importing module, and tools that
# patch them (benchmark/tracer.py) replace every such binding; a binding
# that stops being the home module's function escapes the patch.
MODULE_BINDINGS = [
    (signal_sim, core, "count_cycle_slips"),
    (cli, signal_sim, "run_loop"),
    (cli, signal_sim, "export_csv"),
    (cli, ode, "integrate"),
    (cli, ode, "lock_verdict"),
    (cli, ode, "phase_portrait"),
    (cli, analysis, "design"),
    (cli, analysis, "pull_in_time_formula"),
    (cli, baseband, "classic_rhs"),
    (cli, baseband, "delay_rhs"),
]


@pytest.mark.parametrize("user,home,name", MODULE_BINDINGS,
                         ids=[f"{u.__name__}.{n}" for u, _, n in MODULE_BINDINGS])
def test_module_binding_is_home_function(user, home, name):
    assert getattr(user, name) is getattr(home, name)
