"""The benchmark's workloads: which sweeps each runs, at what size, and why.

Stdlib only, so the orchestrator can validate a workload name without
importing numpy. Grids are the acceptance grids (5-10 dB static, 5-8 dB
quasi). The workload seed reaches the program only as ``master_seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

# the seed of the A1-A9 acceptance battery; the golden CSVs are taken here
DEFAULT_SEED = 20260822

STATIC_GRID = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
QUASI_GRID = (5.0, 6.0, 7.0, 8.0)


@dataclass(frozen=True)
class Sweep:
    """One public sweep call: harness.run_static_sweep or run_quasi_static."""

    kind: str  # "static" or "quasi"
    method: str
    channel: str
    n_frames: int
    n_data_bits: int

    @property
    def label(self) -> str:
        return f"{self.method}_{self.channel}"

    def config_kwargs(self, seed: int, n_frames: int = 0) -> dict:
        """ExperimentConfig keywords; ``n_frames`` overrides the size."""
        frames = n_frames or self.n_frames
        kw = dict(method=self.method, channel=self.channel,
                  n_data_bits=self.n_data_bits, master_seed=seed)
        if self.kind == "static":
            kw.update(ebn0_grid=STATIC_GRID, genie=self.method == "chaotic-opt",
                      trials=frames * self.n_data_bits)
        else:
            kw.update(ebn0_grid=QUASI_GRID, frames=frames, n_training_bits=256)
        return kw


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: Tuple[Sweep, ...]
    pool: bool  # jobs = nproc instead of 1
    golden: str  # directory under golden/ holding this workload's CSVs

    @property
    def jobs(self) -> int:
        return nproc() if self.pool else 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _static(method, channel, n_frames, n_data_bits):
    return Sweep("static", method, channel, n_frames, n_data_bits)


def _quasi(method, channel, n_frames):
    return Sweep("quasi", method, channel, n_frames, 3840)


# Short 1024-bit frames on the linear receivers: per-frame harness glue and,
# at jobs=nproc, pool pickling and chunking are a visible share of a frame.
_LINEAR = tuple(_static(m, c, 128, 1024)
                for m in ("chaotic-opt", "rrc-mmse")
                for c in ("static2", "static3"))

WORKLOADS = {w.name: w for w in (
    Workload(
        "static-dfe",
        "known-channel decision-feedback sweeps: the causal decoder does "
        "about 90% of the work, so a faster decoder shows here first",
        tuple(_static("chaotic-subopt", c, 8, 3840)
              for c in ("static2", "static3")),
        pool=False, golden="static-dfe"),
    Workload(
        "static-linear",
        "genie and MMSE linear receivers bypass the decision-feedback "
        "decoder: shaping, channel and full-rate matched filter dominate",
        _LINEAR, pool=False, golden="static-linear"),
    Workload(
        "quasi",
        "estimated channel: per-frame redraw, full-frame matched filter "
        "feeding frame sync, LS estimate and decode at every grid point",
        tuple(_quasi(m, c, 8)
              for c in ("quasi2", "quasi3")
              for m in ("chaotic-subopt", "rrc-mmse")),
        pool=False, golden="quasi"),
    Workload(
        "static-linear-pool",
        "static-linear at jobs=nproc: the only workload through the process "
        "pool; shares goldens with static-linear, so it checks A9 too",
        _LINEAR, pool=True, golden="static-linear"),
)}
