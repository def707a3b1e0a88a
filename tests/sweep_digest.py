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

    PYTHONPATH=src python tests/sweep_digest.py --check > digest.txt

prints the same lines and also compares every kernel's counts with
``golden/acceptance_counts.txt``: it names on stderr the first (sweep,
point) that moved and exits 1. The records then need no second commit;
the stats column still does.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from test_golden import (ACCEPTANCE_COUNTS, KERNELS,  # noqa: E402
                         _dynamic_openblas, acceptance_sweeps, count_lines,
                         first_moved, run_sweep)

# each kernel's sweeps run in a fresh interpreter, since OpenBLAS reads
# OPENBLAS_CORETYPE when it loads
_CHILD = """if True:
    import sys
    sys.path.insert(0, sys.argv[1])
    import sweep_digest
    sweep_digest.run_sweeps()
"""

# marks a count line among a child's digest lines
COUNT = "count "


def sha(value) -> str:
    blob = json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def digest(records) -> str:
    # [rows, None] is the layout known-channel lines have always hashed, so
    # their digests stay comparable with older commits' outputs
    return sha([[[r.method, r.channel, repr(r.ebn0_db), r.bits, r.errors,
                  repr(r.ber), repr(r.ci95)] for r in records], None])


def run_sweeps() -> None:
    """Print each sweep's digest line, then its count lines marked with
    ``COUNT``."""
    for kind, cfg in acceptance_sweeps():
        recs, stats = run_sweep(kind, cfg, 1)
        line = f"{kind} {cfg.method} {cfg.channel} {digest(recs)}"
        print(line + (f" {sha(stats)}" if stats else ""), flush=True)
        for count in count_lines(kind, cfg, recs, stats):
            print(COUNT + count, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="also compare the counts with "
                             "golden/acceptance_counts.txt")
    check = parser.parse_args().check
    if check:
        with open(ACCEPTANCE_COUNTS) as fh:
            want = fh.read().splitlines()
    kernels = ("default",) + KERNELS
    if not _dynamic_openblas():
        kernels = ("default",)
        print("# numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
              "OPENBLAS_CORETYPE selects no kernel: default kernel only",
              flush=True)
    status = 0
    for kernel in kernels:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", _CHILD, HERE], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        counts = []
        for line in proc.stdout.splitlines():
            if line.startswith(COUNT):
                counts.append(line[len(COUNT):])
            else:
                print(kernel, line, flush=True)
        moved = first_moved(counts, want) if check else None
        if moved:
            print(f"{kernel}: counts moved: got {moved[0]!r}, want "
                  f"{moved[1]!r}", file=sys.stderr, flush=True)
            status = 1
        elif check:
            print(f"{kernel}: all {len(want)} count lines match",
                  file=sys.stderr, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
