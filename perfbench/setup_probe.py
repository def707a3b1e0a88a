"""Set-up time in a fresh interpreter: import chaosmodem and finish a
one-frame sweep of the workload's first config at the workload's worker
count. Covers imports, lru_cache fills and sweep-context construction.
Prints the seconds taken as the last line of stdout.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload quasi --seed 1
"""

import argparse
import sys
import time

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    sweep = workload.sweeps[0]

    t0 = time.perf_counter()
    from chaosmodem import harness
    cfg = harness.ExperimentConfig(**sweep.config_kwargs(args.seed, 1))
    if sweep.kind == "static":
        harness.run_static_sweep(cfg, jobs=workload.jobs)
    else:
        harness.run_quasi_static(cfg, jobs=workload.jobs)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
