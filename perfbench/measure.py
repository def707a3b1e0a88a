"""One measured run of a workload, in the interpreter run.py starts.

Untraced (--trace 0): repeats the workload's sweeps at the workload's
worker count for --seconds and reports bits_per_s (from each sweep's
fastest call) and peak_rss_mb. Traced (--trace 1): alternates untraced
and traced rounds at jobs=1 and reports per-layer numbers per frame from
the traced ones. Every round's outputs are checked. Prints one JSON
object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import chaosmodem
from chaosmodem import harness

from check import Checker
from spans import LAYER_NAMES, Tracer
from workloads import WORKLOADS, nproc

# layer name -> unit of its work counter, for the layers that count one
WORK_UNITS = {
    "rxchain.decode_suboptimal": "symbols",
    "rxchain.matched_filter": "samples",
    "baseline.rrc_matched_filter": "samples",
    "channel.propagate": "samples",
    "rxchain.frame_sync": "samples",
}
CALL_COUNTED = ("rxchain.decode_suboptimal", "baseline.design_mmse",
                "theory.composite_response")


def environment() -> dict:
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "numba_imports": have_numba,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs the workload's sweeps round after round and checks them."""

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.sweeps = [(s, harness.ExperimentConfig(**s.config_kwargs(seed)))
                       for s in workload.sweeps]
        self.checker = Checker(workload.golden, seed, out_dir)
        self.first = {}  # label -> records of the first round
        self.bits = {}  # label -> payload bits of one call
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.quasi_stats = {}  # label -> stats dict of run_quasi_static

    def warm_up(self, jobs):
        """One-frame sweep of each config: fills lru caches untimed."""
        for sweep, _ in self.sweeps:
            cfg = harness.ExperimentConfig(**sweep.config_kwargs(self.seed, 1))
            self._call(sweep, cfg, jobs, {} if sweep.kind == "quasi" else None)

    @staticmethod
    def _call(sweep, cfg, jobs, stats):
        # looked up at call time so that tracing wrappers apply
        if sweep.kind == "static":
            return harness.run_static_sweep(cfg, jobs=jobs)
        return harness.run_quasi_static(cfg, jobs=jobs, stats=stats)

    def round(self, jobs, times):
        """All sweeps once; appends each call's seconds to times[label]."""
        for sweep, cfg in self.sweeps:
            self.attempted += 1
            stats = {} if sweep.kind == "quasi" else None
            t0 = time.perf_counter()
            try:
                records = self._call(sweep, cfg, jobs, stats)
            except Exception:
                self._fail(f"{sweep.label} raised:\n{traceback.format_exc()}")
                continue
            times.setdefault(sweep.label, []).append(time.perf_counter() - t0)
            self.bits[sweep.label] = sum(r.bits for r in records)
            problems = self.checker.problems(sweep, records)
            ref = self.first.setdefault(sweep.label, records)
            if records != ref:
                problems.append(f"{sweep.label}: differs from the first round")
            if problems:
                self._fail("; ".join(problems))
            if stats is not None:
                self.quasi_stats[sweep.label] = stats

    def _fail(self, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def peak_rss_mb(jobs):
    """Peak RSS of this process plus, with a pool, jobs times the largest
    worker: at most jobs workers are alive at once."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * workers if jobs > 1 else 0)) / 1024.0


def best_seconds(times):
    """Sum over sweeps of each sweep's fastest call. Load from other
    processes on the host only ever adds time, so the fastest repeat is
    the least disturbed measure of the sweep's own cost."""
    return sum(min(v) for v in times.values())


def repeat(seconds, step):
    """Call step() at least once, then until seconds have passed."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def untraced(runner, seconds):
    jobs = runner.workload.jobs
    runner.warm_up(jobs)
    times = {}
    repeat(seconds, lambda: runner.round(jobs, times))
    if not times:
        raise RuntimeError("no sweep of the workload completed")
    bits = sum(runner.bits[label] for label in times)
    return {
        "bits_per_s": {"value": bits / best_seconds(times), "unit": "bit/s"},
        "peak_rss_mb": {"value": peak_rss_mb(jobs), "unit": "MB"},
    }, {"rounds_bits_per_s": [bits / sum(col)
                              for col in zip(*times.values())]}


def traced(runner, seconds, spans_path):
    runner.warm_up(1)
    tracer = Tracer()
    plain, wrapped = {}, {}

    def step():
        runner.round(1, plain)
        with tracer.installed():
            runner.round(1, wrapped)

    repeat(seconds, step)
    tracer.dump(spans_path)
    frames = sum(len(wrapped.get(s.label, ())) * s.n_frames
                 for s, _ in runner.sweeps)
    per, wall = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in LAYER_NAMES:
        own, calls, work = per[name]
        put(f"{name}.ms_per_frame", 1000.0 * own / frames, "ms")
        if name in CALL_COUNTED:
            put(f"{name}.calls_per_frame", calls / frames, "count")
        if name in WORK_UNITS:
            put(f"{name}.{WORK_UNITS[name]}_per_frame", work / frames, "count")
    put("harness.self_ms_per_frame", 1000.0 * per["harness"][0] / frames, "ms")
    put("trace.wall_ms_per_frame", 1000.0 * wall / frames, "ms")
    put("trace.overhead_frac",
        best_seconds(wrapped) / best_seconds(plain) - 1.0, "frac")
    # health counts of the estimated-channel sweeps; 0 where there are none
    points = [p for st in runner.quasi_stats.values() for p in st["per_point"]]
    n_frames = sum(p["frames"] for p in points)
    put("rxchain.frame_sync.fail_frac",
        sum(p["failed_frames"] for p in points) / n_frames if points else 0.0,
        "frac")
    rms = [p["est_rms_mean"] for p in points if np.isfinite(p["est_rms_mean"])]
    put("harness.estimate.rms_mean", float(np.mean(rms)) if rms else 0.0, "gain")
    return metrics, {"traced_rounds": max(map(len, wrapped.values()), default=0),
                     "spans": spans_path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(chaosmodem.__file__).startswith(src + os.sep):
        raise SystemExit(f"chaosmodem imported from {chaosmodem.__file__}, "
                         f"not from {src}")
    os.makedirs(args.out_dir, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.out_dir)
    if args.trace:
        metrics, detail = traced(runner, args.seconds, os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics, detail = untraced(runner, args.seconds)
    print(json.dumps({"env": environment(), "metrics": metrics,
                      "detail": detail, "attempted": runner.attempted,
                      "failed": runner.failed, "problems": runner.problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
