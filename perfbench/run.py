"""chaosmodem benchmark: payload bit decisions per second through the public
sweep API, with set-up time, peak memory and output checks.

    python3 perfbench/run.py --workload static-dfe --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. Every
measurement runs in a fresh interpreter with BLAS and OpenMP pinned to one
thread (numpy links OpenBLAS, whose pinv/lstsq would otherwise take every
core). The workload seed reaches the program only as master_seed.

--trace 0 prints the end-to-end metrics:
  bits_per_s   sum of BerRecord.bits over the workload's sweeps divided by
               the wall time of those sweep calls, each sweep timed by its
               fastest repeat in the run (median over rounds also printed)
  setup_s      median over fresh interpreters of import + one-frame sweep
  peak_rss_mb  peak RSS of the measuring process, plus its pool workers
--trace 1 prints per-layer numbers per frame from a traced jobs=1 run
(see spans.py); they are not comparable with untraced timings.
failed_frac (failed sweeps / sweeps attempted) is printed on both and is
the result line's failed / attempted; it is 0 on a correct program, so it
is a gate rather than a bounded metric. A sweep fails if it raises or its
outputs fail the checks in check.py.

Workloads are defined, with the reason for each, in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 8
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# two independent copies of a pure-Python loop against one, on the 2-core
# reference box (a shared host, so the figure moves with other load)
SCALING_NOTE = ("raw 2-process scaling on the 2-core reference box has "
                "measured 1.29x to 1.96x; static-linear-pool is compared "
                "across commits, not read as program scaling")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in PINNED:
        env[var] = "1"
    return env


def run_child(argv, timeout) -> str:
    """Run a Python script of the benchmark; return its last stdout line."""
    # own session, so a timeout can stop pool workers along with the child
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{argv[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{argv[0]} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{argv[0]} printed nothing")
    return lines[-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "chaosmodem", "__init__.py")):
        sys.stderr.write(f"no chaosmodem sources under {ROOT}/src\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def probe_setup(n):
        for _ in range(n):
            setup.append(float(run_child(
                [os.path.join(HERE, "setup_probe.py")] + common, 60)))

    # set-up is probed on both sides of the measurement, so that the median
    # samples the host at two moments, not one
    if not args.trace:
        probe_setup(SETUP_PROBES // 2)
    out = json.loads(run_child(
        [os.path.join(HERE, "measure.py")] + common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR], args.seconds + 120))
    if not args.trace:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    metrics = out["metrics"]
    env = out["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {WORKLOADS[args.workload].jobs if not args.trace else 1}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("note " + SCALING_NOTE)
    if setup:
        q1, med, q3 = quartiles(setup)
        metrics["setup_s"] = {"value": med, "unit": "s"}
        print(f"setup_s {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, "
              f"n={len(setup)} fresh interpreters)")
    for name, m in metrics.items():
        if name != "setup_s":
            print(f"{name} {m['value']:.6g} {m['unit']}")
    if "rounds_bits_per_s" in out["detail"]:
        rounds = out["detail"]["rounds_bits_per_s"]
        q1, med, q3 = quartiles(rounds)
        print(f"per-round bits_per_s: median {med:.1f}, q1 {q1:.1f}, "
              f"q3 {q3:.1f}, n={len(rounds)} rounds")
    print(f"failed_frac {out['failed'] / out['attempted']:.6g} frac "
          f"({out['failed']} of {out['attempted']} sweeps)")
    for problem in out["problems"]:
        print("FAILED " + problem)
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
