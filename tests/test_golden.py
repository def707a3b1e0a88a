"""Golden-output gate: small fixed sweeps must reproduce their committed
CSVs byte for byte.

Every simulated method runs on both static presets, the two estimated-
channel methods on both quasi presets, and both theory curves on both
static presets, each at n_c = 8, 6 and 4 (shaping at n_c = 6 is not
dyadic, so it is the case most sensitive to a change in arithmetic
order). A refactor that is meant to keep behaviour must leave these
files untouched; a change that is meant to alter outputs regenerates
them with

    PYTHONPATH=src python3 tests/bless_golden.py

Every case is also rerun under other OpenBLAS kernels, where numpy's BLAS
lets ``OPENBLAS_CORETYPE`` pick one, and must give the same bytes there:
the theory values are correctly rounded scalars (each pulse energy a
``math.fsum``), and the simulated values integer counts.

The sweeps of the acceptance battery, at its sizes and seed, are pinned
too, by their integer counts only: ``golden/acceptance_counts.txt`` holds
one line per (sweep, point), which ``bless_golden.py`` writes as well.
So are estimated-channel sweeps in the sync transition region, where frame
sync fails some frames of most points: ``golden/sync_transition.txt``
holds their counts in the same form, each line led by the sweep's n_c,
training length and failure policy.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chaosmodem.harness as H
import test_acceptance as A

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

N_CS = (8, 6, 4)
STATIC_GRID = (0.0, 3.0, 6.0, 9.0)
QUASI_GRID = (3.0, 6.0, 9.0)
THEORY_GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
SEED = 20260822

# (kind, sweep entry point, methods, presets, config keywords)
KINDS = {
    "static": (H.run_static_sweep, H.SIM_METHODS, ("static2", "static3"),
               dict(ebn0_grid=STATIC_GRID, n_data_bits=512, trials=4096)),
    "quasi": (H.run_quasi_static, ("chaotic-subopt", "rrc-mmse"),
              ("quasi2", "quasi3"),
              dict(ebn0_grid=QUASI_GRID, n_data_bits=512, frames=6)),
    "theory": (H.run_theory_curves, H.THEORY_METHODS, ("static2", "static3"),
               dict(ebn0_grid=THEORY_GRID)),
}

CASES = tuple(f"{kind}_nc{n_c}" for kind in KINDS for n_c in N_CS)
ACCEPTANCE_COUNTS = os.path.join(GOLDEN_DIR, "acceptance_counts.txt")
SYNC_TRANSITION = os.path.join(GOLDEN_DIR, "sync_transition.txt")
# (n_c, training bits) of the transition sweeps: the candidate grid decides
# frames at every one, the energy clause only at n_c 3 or 6 or with a
# shorter training block
SYNC_LAYOUTS = ((4, 256), (8, 256), (3, 256), (6, 160))
SYNC_GRID = (-4.0, -3.0, -2.0, -1.0, 0.0)


def golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, case + ".csv")


def case_records(case: str):
    """All records of one case, in a fixed method-major order."""
    kind, nc = case.split("_nc")
    run, methods, presets, kw = KINDS[kind]
    records = []
    for method in methods:
        for preset in presets:
            cfg = H.ExperimentConfig(method=method, channel=preset,
                                     n_c=int(nc), master_seed=SEED,
                                     genie=method == "chaotic-opt", **kw)
            records.extend(run(cfg) if kind == "theory" else run(cfg, jobs=1))
    return records


@pytest.mark.parametrize("case", CASES)
def test_golden_csv(case, tmp_path):
    got = H.emit_csv(case_records(case), str(tmp_path / "got.csv"))
    with open(got, "rb") as fh:
        got_bytes = fh.read()
    with open(golden_path(case), "rb") as fh:
        want_bytes = fh.read()
    assert got_bytes == want_bytes, f"{case} differs from {golden_path(case)}"


def acceptance_sweeps():
    """(kind, config) of each sweep of the acceptance battery at its sizes
    and seed: every simulated method on both static presets, then the two
    estimated-channel methods on both quasi presets."""
    for preset in A.STATIC_PRESETS:
        for method in H.SIM_METHODS:
            yield "static", H.ExperimentConfig(
                method=method, channel=preset, ebn0_grid=A.STATIC_GRID,
                trials=A.STATIC_TRIALS, master_seed=A.MASTER_SEED,
                genie=method == "chaotic-opt")
    for preset in A.QUASI_PRESETS:
        for method in ("chaotic-subopt", "rrc-mmse"):
            yield "quasi", H.ExperimentConfig(
                method=method, channel=preset, ebn0_grid=A.QUASI_GRID,
                frames=A.QUASI_FRAMES, master_seed=A.MASTER_SEED)


def run_sweep(kind: str, config, jobs: int):
    """A sweep's records and its stats dict, empty for a static sweep."""
    stats: dict = {}
    if kind == "static":
        return H.run_static_sweep(config, jobs=jobs), stats
    return H.run_quasi_static(config, jobs=jobs, stats=stats), stats


def count_lines(kind: str, config, records, stats):
    """One line per grid point: the sweep, the point, its bits and errors,
    and for an estimated-channel sweep its failed frames and excluded
    bits. Integers only, so no line depends on the BLAS kernel."""
    points = stats.get("per_point", [{}] * len(records))
    for r, point in zip(records, points):
        extra = "".join(f" {k}={point[k]}" for k in
                        ("failed_frames", "excluded_bits") if k in point)
        yield (f"{kind} {config.method} {config.channel} {r.ebn0_db!r} "
               f"bits={r.bits} errors={r.errors}{extra}")


def acceptance_counts(jobs: int):
    """Every line of ``acceptance_counts.txt``, recomputed."""
    return [line for kind, config in acceptance_sweeps()
            for line in count_lines(kind, config,
                                    *run_sweep(kind, config, jobs))]


def sync_transition_sweeps():
    """The estimated-channel sweeps of ``sync_transition.txt``: both methods
    on both quasi presets under both failure policies, per layout of
    ``SYNC_LAYOUTS``, 40 frames of 256 payload bits over ``SYNC_GRID``."""
    for (n_c, n_train), preset, method, policy in itertools.product(
            SYNC_LAYOUTS, ("quasi2", "quasi3"), ("chaotic-subopt", "rrc-mmse"),
            ("pessimistic", "separate")):
        yield H.ExperimentConfig(
            method=method, channel=preset, ebn0_grid=SYNC_GRID, frames=40,
            n_data_bits=256, n_training_bits=n_train, n_c=n_c,
            master_seed=SEED, failure_policy=policy)


def sync_transition_counts():
    """Every line of ``sync_transition.txt``, recomputed."""
    return [f"n_c={cfg.n_c} train={cfg.n_training_bits} "
            f"{cfg.failure_policy} {line}"
            for cfg in sync_transition_sweeps()
            for line in count_lines("quasi", cfg,
                                    *run_sweep("quasi", cfg, 1))]


def first_moved(got, want):
    """The first (got, want) pair of lines that differ, or None; a missing
    line reads as None."""
    return next(((g, w) for g, w in itertools.zip_longest(got, want)
                 if g != w), None)


def check_counts(path: str, got):
    """Assert that ``got`` holds the lines of ``path``, naming the first
    that moved."""
    with open(path) as fh:
        want = fh.read().splitlines()
    moved = first_moved(got, want)
    assert moved is None, "got {!r}, want {!r}".format(*moved)


def test_acceptance_counts():
    # at every worker the host has, so the pool runs A9's claim at full size
    check_counts(ACCEPTANCE_COUNTS, acceptance_counts(os.cpu_count() or 1))


def test_sync_transition_counts():
    # the failure path: the candidate grid and the energy clause each decide
    # frames here, which they never do at the acceptance sizes
    check_counts(SYNC_TRANSITION, sync_transition_counts())


KERNELS = ("Haswell", "Prescott")

_RERUN = """if True:
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import chaosmodem.harness as H
    from test_golden import CASES, case_records, golden_path
    differ = []
    for case in CASES:
        got = H.emit_csv(case_records(case), sys.argv[2] + "/" + case + ".csv")
        with open(got, "rb") as a, open(golden_path(case), "rb") as b:
            if a.read() != b.read():
                differ.append(case)
    print(json.dumps(differ))
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def test_golden_csv_under_other_kernels(tmp_path):
    # no golden may depend on the BLAS kernel: each is rerun in a fresh
    # interpreter per kernel
    if not _dynamic_openblas():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                    "OPENBLAS_CORETYPE selects no kernel")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    procs = {}
    for kernel in KERNELS:
        out = tmp_path / kernel
        out.mkdir()
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2",
               "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        procs[kernel] = subprocess.Popen(
            [sys.executable, "-c", _RERUN, here, str(out)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for kernel, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        # OpenBLAS names the kernel it loaded
        assert "Core: " in stderr, stderr
        assert json.loads(stdout.splitlines()[-1]) == [], kernel
