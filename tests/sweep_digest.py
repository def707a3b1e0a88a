"""Print one SHA-256 per acceptance-size sweep, for byte-identity checks.

    PYTHONPATH=src python tests/sweep_digest.py

Runs the sweeps of the acceptance battery at its sizes and seed: the ten
known-channel (method, preset) sweeps at 500k bits per point and the four
estimated-channel sweeps at 500 frames, the latter with their stats dicts.
Each digest covers every field of every record (floats by repr). Run it on
two commits and ``diff`` the outputs: a refactor that keeps the results
prints the same lines.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_acceptance import (MASTER_SEED, QUASI_FRAMES, QUASI_GRID,  # noqa: E402
                             QUASI_PRESETS, STATIC_GRID, STATIC_PRESETS,
                             STATIC_TRIALS)

from chaosmodem import harness  # noqa: E402


def digest(records, stats=None) -> str:
    rows = [[r.method, r.channel, repr(r.ebn0_db), r.bits, r.errors,
             repr(r.ber), repr(r.ci95)] for r in records]
    blob = json.dumps([rows, stats], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    for preset in STATIC_PRESETS:
        for method in harness.SIM_METHODS:
            cfg = harness.ExperimentConfig(
                method=method, channel=preset, ebn0_grid=STATIC_GRID,
                trials=STATIC_TRIALS, master_seed=MASTER_SEED,
                genie=(method == "chaotic-opt"))
            print(f"static {method} {preset} "
                  f"{digest(harness.run_static_sweep(cfg))}", flush=True)
    for preset in QUASI_PRESETS:
        for method in ("chaotic-subopt", "rrc-mmse"):
            cfg = harness.ExperimentConfig(
                method=method, channel=preset, ebn0_grid=QUASI_GRID,
                frames=QUASI_FRAMES, master_seed=MASTER_SEED)
            stats: dict = {}
            recs = harness.run_quasi_static(cfg, stats=stats)
            print(f"quasi {method} {preset} {digest(recs, stats)}", flush=True)


if __name__ == "__main__":
    main()
