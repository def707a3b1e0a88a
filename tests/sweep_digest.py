"""Print SHA-256 digests of each acceptance-size sweep under each BLAS
kernel, for byte-identity checks.

    PYTHONPATH=src python tests/sweep_digest.py > digest.txt

Runs the sweeps of the acceptance battery at its sizes and seed: the ten
known-channel (method, preset) sweeps at 500k bits per point and the four
estimated-channel sweeps at 500 frames. A known-channel line carries one
digest, of every field of every record (floats by repr); an
estimated-channel line carries that digest of its records and then one of
its stats dict, so a change that moves only ``est_rms_*`` shows as equal
record digests (every count held) and a changed stats digest. The
sweeps run once under the kernel OpenBLAS picks by itself ("default") and
once each under ``OPENBLAS_CORETYPE=Haswell`` and ``=Prescott``, one
subprocess per kernel, and every line starts with the kernel's name. Where
numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, the other kernels are skipped
and a comment line says why. Run it on two commits and ``diff`` the
outputs: a refactor that keeps the results prints the same lines.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from test_acceptance import (MASTER_SEED, QUASI_FRAMES, QUASI_GRID,  # noqa: E402
                             QUASI_PRESETS, STATIC_GRID, STATIC_PRESETS,
                             STATIC_TRIALS)
from test_golden import KERNELS, _dynamic_openblas  # noqa: E402

from chaosmodem import harness  # noqa: E402

# each kernel's sweeps run in a fresh interpreter, since OpenBLAS reads
# OPENBLAS_CORETYPE when it loads
_CHILD = """if True:
    import sys
    sys.path.insert(0, sys.argv[1])
    import sweep_digest
    sweep_digest.run_sweeps()
"""


def sha(value) -> str:
    blob = json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def digest(records) -> str:
    # [rows, None] is the layout known-channel lines have always hashed, so
    # their digests stay comparable with older commits' outputs
    return sha([[[r.method, r.channel, repr(r.ebn0_db), r.bits, r.errors,
                  repr(r.ber), repr(r.ci95)] for r in records], None])


def run_sweeps() -> None:
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
            print(f"quasi {method} {preset} {digest(recs)} {sha(stats)}",
                  flush=True)


def main() -> None:
    kernels = ("default",) + KERNELS
    if not _dynamic_openblas():
        kernels = ("default",)
        print("# numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
              "OPENBLAS_CORETYPE selects no kernel: default kernel only",
              flush=True)
    for kernel in kernels:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", _CHILD, HERE], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        for line in proc.stdout.splitlines():
            print(kernel, line, flush=True)


if __name__ == "__main__":
    main()
