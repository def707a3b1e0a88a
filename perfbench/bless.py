"""Write the golden CSVs: every workload's sweeps at the default seed,
jobs=1. Run only when a change is meant to alter the sweep outputs.

    PYTHONPATH=src python3 perfbench/bless.py
"""

import os
import sys

from chaosmodem import harness

from check import golden_path
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    done = set()
    for workload in WORKLOADS.values():
        for sweep in workload.sweeps:
            path = golden_path(workload.golden, sweep)
            if path in done:
                continue
            cfg = harness.ExperimentConfig(**sweep.config_kwargs(DEFAULT_SEED))
            run = (harness.run_static_sweep if sweep.kind == "static"
                   else harness.run_quasi_static)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            harness.emit_csv(run(cfg, jobs=1), path)
            done.add(path)
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
