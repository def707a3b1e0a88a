"""Correctness checks on sweep outputs.

At the default seed every sweep's CSV must equal its golden byte for
byte. At any other seed the records must satisfy the BerRecord invariants
for the sweep's size, and the static chaotic-opt/chaotic-subopt points
must fall in the selftest band around the closed form: 0.5x to 2x theory,
widened by 3 ci95.
"""

from __future__ import annotations

import os

from chaosmodem import harness

from workloads import DEFAULT_SEED, Sweep

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# The band is applied where the closed form predicts at least this many
# errors at the sweep's size. Below that a correct decoder often counts
# zero errors, which reports ci95 = 0 and leaves no band to fall in (the
# acceptance tests likewise skip points with predicted BER < 1e-4).
MIN_EXPECTED_ERRORS = 20

_THEORY = {"chaotic-opt": "theory-opt", "chaotic-subopt": "theory-subopt"}


def golden_path(golden: str, sweep: Sweep) -> str:
    return os.path.join(GOLDEN_DIR, golden, sweep.label + ".csv")


class Checker:
    """Checks one workload's sweeps; theory curves are computed once."""

    def __init__(self, golden: str, seed: int, scratch_dir: str):
        self.golden = golden
        self.seed = seed
        self.scratch_dir = scratch_dir
        self._theory = {}

    def problems(self, sweep: Sweep, records) -> list:
        """Empty when the sweep's records are correct."""
        if self.seed == DEFAULT_SEED:
            return self._golden_problems(sweep, records)
        return self._invariant_problems(sweep, records) + (
            self._band_problems(sweep, records) if sweep.kind == "static"
            and sweep.method in _THEORY else [])

    def _golden_problems(self, sweep, records):
        path = harness.emit_csv(records, os.path.join(self.scratch_dir,
                                                      sweep.label + ".csv"))
        with open(path, "rb") as fh:
            got = fh.read()
        with open(golden_path(self.golden, sweep), "rb") as fh:
            want = fh.read()
        return [] if got == want else [
            f"{sweep.label}: CSV differs from golden {self.golden}"]

    def _invariant_problems(self, sweep, records):
        grid = sweep.config_kwargs(self.seed)["ebn0_grid"]
        full = sweep.n_frames * sweep.n_data_bits
        out = []
        if [r.ebn0_db for r in records] != list(grid):
            out.append(f"{sweep.label}: grid {[r.ebn0_db for r in records]}")
        for r in records:
            where = f"{sweep.label} @ {r.ebn0_db:g} dB"
            if (r.method, r.channel) != (sweep.method, sweep.channel):
                out.append(f"{where}: labelled {r.method}/{r.channel}")
            # pessimistic failure policy: failed frames count as all errors,
            # so every sweep counts its full payload
            if r.bits != full:
                out.append(f"{where}: {r.bits} bits, want {full}")
            if r != harness.BerRecord.from_counts(r.method, r.channel,
                                                  r.ebn0_db, r.bits, r.errors):
                out.append(f"{where}: ber/ci95 inconsistent with counts")
        return out

    def _band_problems(self, sweep, records):
        key = (sweep.method, sweep.channel)
        if key not in self._theory:
            cfg = harness.ExperimentConfig(method=_THEORY[sweep.method],
                                           channel=sweep.channel,
                                           ebn0_grid=[r.ebn0_db for r in records])
            self._theory[key] = harness.run_theory_curves(cfg)
        out = []
        for s, t in zip(records, self._theory[key]):
            if t.ber * s.bits < MIN_EXPECTED_ERRORS:
                continue
            lo = 0.5 * t.ber - 3.0 * s.ci95
            hi = 2.0 * t.ber + 3.0 * s.ci95
            if not lo <= s.ber <= hi:
                out.append(f"{sweep.label} @ {s.ebn0_db:g} dB: ber {s.ber:.3e} "
                           f"outside [{lo:.3e}, {hi:.3e}] around theory")
        return out
