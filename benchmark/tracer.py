"""Span and counter tracing around the public functions of costas_lab.

The tracer replaces each traced function with a wrapper under every name
its callers look it up by (``costas_lab.cli.run_loop`` as well as
``costas_lab.signal_sim.run_loop``), and restores the originals when it is
removed.  Layer-boundary calls become spans (name, start, end, parent,
attributes) kept in memory.  Functions called once per ODE stage, such as
``classic_rhs``, would make millions of spans, so they only add to a call
counter and a time sum.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter_ns

from costas_lab import analysis, baseband, cli, core, detectors, ode, signal_sim

# (layer.function, the function's home module, other modules that bind the name)
SPANNED = [
    ("signal_sim.run_loop", signal_sim, "run_loop", [cli]),
    ("signal_sim.prbs_symbols", signal_sim, "prbs_symbols", []),
    ("signal_sim.export_csv", signal_sim, "export_csv", [cli]),
    ("signal_sim.measure_pull_in_range", signal_sim, "measure_pull_in_range", []),
    ("core.count_cycle_slips", core, "count_cycle_slips", [signal_sim]),
    ("ode.integrate", ode, "integrate", [cli]),
    ("ode.lock_verdict", ode, "lock_verdict", [cli]),
    ("ode.phase_portrait", ode, "phase_portrait", [cli]),
    ("ode.step_sensitivity_probe", ode, "step_sensitivity_probe", []),
    ("analysis.design", analysis, "design", [cli]),
    ("analysis.pull_in_time_formula", analysis, "pull_in_time_formula", [cli]),
    ("cli.main", cli, "main", []),
]
COUNTED = [
    ("baseband.classic_rhs", baseband, "classic_rhs", [cli]),
    ("baseband.delay_rhs", baseband, "delay_rhs", [cli]),
]


def _attrs(name, args, out):
    """Work counts of one call, read from its arguments and result."""
    if name == "signal_sim.run_loop":
        return {"variant": args[0].variant.tag.value, "samples": len(out.t)}
    if name == "signal_sim.prbs_symbols":
        return {"symbols": args[1]}
    if name == "signal_sim.export_csv":
        return {"rows": len(args[0].t), "bytes": os.path.getsize(args[1])}
    if name == "core.count_cycle_slips":
        return {"samples": len(args[0])}
    if name == "ode.phase_portrait":
        return {"trajectories": len(args[1])}
    if name == "cli.main":
        return {"command": args[0][0]}
    return None


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, child_ns, attrs]
        self.leaf = {name: [0, 0] for name, *_ in COUNTED}   # [calls, ns]
        self.phi_calls = [0]
        self.phi_in_delay = [0]
        self._stack = []
        self._saved = []
        self.largest_run_loop = None     # (samples, args) of the longest call

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "ode.integrate":
                args, rhs_calls = _count_rhs(args)
            idx = len(spans)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, 0, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter_ns()
                if span[3] >= 0:
                    spans[span[3]][4] += span[2] - span[1]
            if name == "ode.integrate":
                span[5] = {"method": args[2].method, "steps": len(out.t) - 1,
                           "rhs_calls": rhs_calls[0]}
            else:
                span[5] = _attrs(name, args, out)
            if name == "signal_sim.run_loop":
                n = span[5]["samples"]
                if self.largest_run_loop is None or n > self.largest_run_loop[0]:
                    self.largest_run_loop = (n, args)
            return out

        return wrapper

    def _leaf_wrapper(self, name, fn):
        acc = self.leaf[name]
        phi_calls, phi_in_delay = self.phi_calls, self.phi_in_delay
        delay = name == "baseband.delay_rhs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phi0 = phi_calls[0]
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += perf_counter_ns() - t0
                acc[0] += 1
                if delay:
                    phi_in_delay[0] += phi_calls[0] - phi0

        return wrapper

    # --- install / remove -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for name, home, attr, users in SPANNED:
            wrapped = self._span_wrapper(name, getattr(home, attr))
            for module in [home, *users]:
                self._patch(module, attr, wrapped)
        for name, home, attr, users in COUNTED:
            wrapped = self._leaf_wrapper(name, getattr(home, attr))
            for module in [home, *users]:
                self._patch(module, attr, wrapped)
        phi = detectors.PdCharacteristic.phi
        counter = self.phi_calls

        @functools.wraps(phi)
        def counted_phi(pd, theta_e):
            counter[0] += 1
            return phi(pd, theta_e)

        self._patch(detectors.PdCharacteristic, "phi", counted_phi)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------------

    def counts(self):
        """Every work count, for the check that traced rounds repeat exactly."""
        out = defaultdict(int)
        for name, _, _, _, _, attrs in self.spans:
            out[name + ".calls"] += 1
            for key, value in (attrs or {}).items():
                if isinstance(value, int):
                    out[f"{name}.{key}"] += value
                else:
                    out[f"{name}.{key}={value}"] += 1
        for name, (calls, _) in self.leaf.items():
            out[name + ".calls"] = calls
        out["detectors.phi.calls"] = self.phi_calls[0]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "leaf": {k: {"calls": c, "ns": ns} for k, (c, ns) in self.leaf.items()},
                       "phi_calls": self.phi_calls[0],
                       "phi_calls_in_delay_rhs": self.phi_in_delay[0]}, fh)


def _count_rhs(args):
    """Replace the rhs argument of integrate with a counting one."""
    rhs, rest = args[0], args[1:]
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return rhs(t, y)

    return (counted, *rest), calls


def per_layer(tracer: Tracer, rounds: int, bytes_per_sample: float, import_s: float) -> dict:
    """Per-layer metrics from the spans of ``rounds`` identical traced rounds.

    Counts are per round.  A rate whose layer the workload never calls reads 0.
    """
    spans = tracer.spans
    agg = defaultdict(float)
    for name, t0, t1, parent, child_ns, attrs in spans:
        dur, self_ns = t1 - t0, t1 - t0 - child_ns
        a = attrs or {}
        agg[name + ".calls"] += 1
        agg[name + ".ns"] += dur
        agg[name + ".self_ns"] += self_ns
        if name == "signal_sim.run_loop":
            v = a["variant"]
            agg[f"run_loop.{v}.self_ns"] += self_ns
            agg[f"run_loop.{v}.samples"] += a["samples"]
            agg["run_loop.samples"] += a["samples"]
            if parent >= 0 and spans[parent][0] == "signal_sim.measure_pull_in_range":
                agg["search.trials"] += 1
                agg["search.samples"] += a["samples"]
        elif name == "ode.integrate":
            m = a["method"]
            agg[f"integrate.{m}.ns"] += dur
            agg[f"integrate.{m}.steps"] += a["steps"]
            agg[f"integrate.{m}.rhs_calls"] += a["rhs_calls"]
            if m == "rk45":
                # Dormand-Prince: one rhs call at the start, then six per
                # attempted step (the last stage is reused on acceptance)
                attempts = (a["rhs_calls"] - 1) // 6
                agg["integrate.rk45.rejected"] += attempts - a["steps"]
        elif name == "cli.main":
            agg[f"cli.{a['command']}.ns"] += dur
            agg[f"cli.{a['command']}.calls"] += 1
        for key in ("symbols", "rows", "bytes", "samples", "trajectories"):
            if key in a and name != "signal_sim.run_loop":
                agg[f"{name}.{key}"] += a[key]

    def ratio(num, den, scale=1.0):
        return agg[num] / agg[den] * scale if agg[den] else 0.0

    classic_calls, classic_ns = tracer.leaf["baseband.classic_rhs"]
    delay_calls, _ = tracer.leaf["baseband.delay_rhs"]
    m = {}
    for v in ("bpsk", "qpsk", "mod_bpsk", "mod_qpsk"):
        m[f"signal_sim.run_loop.ns_per_sample.{v}"] = ratio(f"run_loop.{v}.self_ns",
                                                            f"run_loop.{v}.samples")
    m["signal_sim.run_loop.calls"] = agg["signal_sim.run_loop.calls"] / rounds
    m["signal_sim.run_loop.samples"] = agg["run_loop.samples"] / rounds
    m["signal_sim.run_loop.bytes_per_sample"] = bytes_per_sample
    m["signal_sim.prbs_symbols.ns_per_symbol"] = ratio("signal_sim.prbs_symbols.ns",
                                                       "signal_sim.prbs_symbols.symbols")
    m["signal_sim.export_csv.us_per_row"] = ratio("signal_sim.export_csv.ns",
                                                  "signal_sim.export_csv.rows", 1e-3)
    m["signal_sim.export_csv.rows"] = agg["signal_sim.export_csv.rows"] / rounds
    m["signal_sim.export_csv.bytes"] = agg["signal_sim.export_csv.bytes"] / rounds
    m["signal_sim.measure_pull_in_range.trials_per_search"] = ratio(
        "search.trials", "signal_sim.measure_pull_in_range.calls")
    m["signal_sim.measure_pull_in_range.samples_per_search"] = ratio(
        "search.samples", "signal_sim.measure_pull_in_range.calls")
    for meth in ("rk4", "rk45"):
        m[f"ode.integrate.us_per_step.{meth}"] = ratio(f"integrate.{meth}.ns",
                                                       f"integrate.{meth}.steps", 1e-3)
        m[f"ode.integrate.steps.{meth}"] = agg[f"integrate.{meth}.steps"] / rounds
    m["ode.integrate.rejected_steps.rk45"] = agg["integrate.rk45.rejected"] / rounds
    m["ode.integrate.rhs_per_step.rk45"] = ratio("integrate.rk45.rhs_calls",
                                                 "integrate.rk45.steps")
    m["ode.phase_portrait.s_per_trajectory"] = ratio("ode.phase_portrait.ns",
                                                     "ode.phase_portrait.trajectories", 1e-9)
    m["ode.lock_verdict.busy_s"] = agg["ode.lock_verdict.ns"] / rounds * 1e-9
    m["baseband.classic_rhs.calls"] = classic_calls / rounds
    m["baseband.classic_rhs.ns_per_call"] = classic_ns / classic_calls if classic_calls else 0.0
    m["baseband.delay_rhs.calls"] = delay_calls / rounds
    m["baseband.delay_rhs.phi_per_call"] = (tracer.phi_in_delay[0] / delay_calls
                                            if delay_calls else 0.0)
    m["analysis.pull_in_time_formula.calls"] = agg["analysis.pull_in_time_formula.calls"] / rounds
    m["analysis.busy_s"] = (agg["analysis.pull_in_time_formula.ns"]
                            + agg["analysis.design.ns"]) / rounds * 1e-9
    m["core.count_cycle_slips.ns_per_sample"] = ratio("core.count_cycle_slips.ns",
                                                      "core.count_cycle_slips.samples")
    for cmd in ("simulate", "portrait"):
        m[f"cli.main.s_per_call.{cmd}"] = ratio(f"cli.{cmd}.ns", f"cli.{cmd}.calls", 1e-9)
    m["cli.self_s"] = agg["cli.main.self_ns"] / rounds * 1e-9
    m["setup.import_s"] = import_s
    return m
