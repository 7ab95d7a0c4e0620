"""Run one workload in this process and print its measurements as JSON.

Started by run.py, once per run and once per set-up sample.  It imports
costas_lab from the checkout's src/, builds the workload's inputs from the
seed, makes one untimed warm-up operation and prints READY.  With
--setup-only it stops there.  Otherwise it runs whole rounds of the
workload's operations until the next round would end after --seconds,
and prints one JSON line.  With --trace 1 untraced and traced rounds
alternate, so one run gives the per-layer numbers and the tracing
overhead.

While the rounds run, a timer samples the host's speed every 0.1 s with
a fixed pure-Python loop.  The time spent in the samples is taken out of
the operation they interrupt, and each round reports the mean sample, so
that run.py can scale round times to a fixed host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# the host speed timings are scaled to: host_ref() takes this long
HOST_REF_S = 1.6e-3
SAMPLE_EVERY_S = 0.1


def host_ref() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


class HostSampler:
    """Times host_ref() from a SIGALRM handler every SAMPLE_EVERY_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.last = HOST_REF_S

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(host_ref())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> float:
        """Mean sample since the last take (the previous mean when none came)."""
        if self.samples:
            self.last = statistics.fmean(self.samples)
            self.samples = []
        return self.last


def run_round(wl, tracer, sampler: HostSampler, failures: list) -> float:
    """One pass over the workload's operations; returns the timed seconds."""
    wall = 0.0
    for op in wl.ops:
        if tracer:
            tracer.install()
        busy0 = sampler.busy_s
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        finally:
            wall += time.perf_counter() - t0 - (sampler.busy_s - busy0)
            if tracer:
                tracer.remove()
        if isinstance(out, Exception):
            failures.append(f"{op.name}: {out!r}")
            continue
        try:
            op.after(out)
        except Exception:  # a check that cannot complete is a failed check
            wl.problem(op.name, "check raised " + traceback.format_exc(limit=3))
    return wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.pop("COSTAS_LAB_SEED", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import costas_lab
    import_s = time.perf_counter() - t0
    if Path(costas_lab.__file__).resolve().parent != (SRC / "costas_lab").resolve():
        print(f"costas_lab imported from {costas_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer, per_layer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.tmp))
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced, durations, failures, round_counts = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    with HostSampler() as sampler:
        while True:
            use_tracer = tracer if tracer and len(plain) > len(traced) else None
            r0 = time.perf_counter()
            before = tracer.counts() if use_tracer else None
            wall = run_round(wl, use_tracer, sampler, failures)
            attempted += len(wl.ops)
            if use_tracer:
                traced.append([wall, sampler.take()])
                after = tracer.counts()
                round_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
            else:
                plain.append([wall, sampler.take()])
            durations.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - start
            if (traced or not tracer) and elapsed + statistics.median(durations) > args.seconds:
                break

    wl.finish()
    result = {
        "plain": plain,        # [timed seconds, mean host sample] per round
        "traced": traced,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "problems": wl.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        if any(c != round_counts[0] for c in round_counts):
            wl.problems.append("work counts differ between traced rounds")
            result["problems"] = wl.problems[:20]
        bytes_per_sample = 0.0
        if tracer.largest_run_loop:
            samples, call_args = tracer.largest_run_loop
            tracemalloc.start()
            costas_lab.signal_sim.run_loop(*call_args)
            bytes_per_sample = tracemalloc.get_traced_memory()[1] / samples
            tracemalloc.stop()
        result["per_layer"] = per_layer(tracer, len(traced), bytes_per_sample, import_s)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
