"""Benchmark of costas-lab: one workload per run, in fresh processes.

    python3 benchmark/run.py --workload acquire_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics setup_s, wall_s and
peak_rss_mb; with --trace 1 it carries the per-layer metrics instead.
Exits 2 without a result when the checkout has no src/costas_lab.
See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import HOST_REF_S, host_ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".costas_bench"
WORKLOADS = ("acquire_sweep", "record_export", "ode_pitfall")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def read_ready(proc: subprocess.Popen, timeout: float) -> bool:
    """Wait for the worker's READY line; kill it if it does not come in time."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.stdout.readline().strip() == b"READY"
    finally:
        timer.cancel()


def setup_seconds(cmd: list[str], env: dict, timeout: float) -> tuple[float, float]:
    """Process start to the end of the warm-up operation, in a fresh worker,
    and the mean host-speed sample taken just before and after it."""
    host = host_ref()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        ready = read_ready(proc, timeout)
        elapsed = time.perf_counter() - t0
        proc.wait()
    if not ready or proc.returncode:
        raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
    return elapsed, 0.5 * (host + host_ref())


def scaled(timings) -> list[float]:
    """Seconds scaled to the host speed at which host_ref() takes HOST_REF_S."""
    return [t * HOST_REF_S / host for t, host in timings]


def measure(cmd: list[str], env: dict, timeout: float) -> dict:
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        if not read_ready(proc, timeout):
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker failed before its first operation (exit {proc.wait()})")
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker ran past {timeout:.0f} s")
    if proc.returncode:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    if not (ROOT / "src" / "costas_lab" / "__init__.py").is_file():
        print(f"error: no costas_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp = OUT / "tmp" / tag
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "COSTAS_LAB_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(tmp))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    trace_file = OUT / f"trace-{tag}.json"
    if args.trace:
        cmd += ["--trace-file", str(trace_file)]

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - start)

    try:
        setups = [] if args.trace else [setup_seconds(cmd, env, remaining())
                                        for _ in range(SETUP_SAMPLES)]
        res = measure(cmd, env, remaining())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in res["failures"] + res["problems"]:
        print(f"  {line}")
    plain, traced = scaled(res["plain"]), scaled(res["traced"])
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced rounds")
    print(f"  seconds per round: {' '.join(f'{t:.4f}' for t, _ in res['plain'])}")
    print(f"  host speed reference, ms: {' '.join(f'{h * 1e3:.3f}' for _, h in res['plain'])} "
          f"(mean time of a fixed pure-Python loop sampled every 0.1 s of each round)")
    print(f"  scaled to {HOST_REF_S * 1e3:g} ms: {' '.join(f'{t:.4f}' for t in plain)}")
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        print(f"tracing overhead: {overhead:.4f} s per round, scaled "
              f"({overhead / statistics.median(plain):+.1%}; {len(traced)} traced rounds); "
              f"spans in {trace_file.relative_to(ROOT)}")
        layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": res["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in layers}
    else:
        print(f"setup seconds: {' '.join(f'{t:.4f}' for t, _ in setups)}; host speed "
              f"reference, ms: {' '.join(f'{h * 1e3:.3f}' for _, h in setups)}")
        metrics = {
            "setup_s": {"value": statistics.median(scaled(setups)), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
