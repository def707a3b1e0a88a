"""Multipath channel model: tapped delay line and noise calibration.

Delays are expressed in symbol periods and must land on the receiver's
sample grid (integer multiples of 1/n_c). Path gains follow a negative
exponential profile alpha_l = exp(-gamma * tau_l) when built from a
damping coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def gains_from_gamma(gamma: float, delays: Sequence[float]) -> np.ndarray:
    """Exponential power-delay profile alpha_l = exp(-gamma * tau_l)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return np.exp(-gamma * np.asarray(delays, dtype=float))


@dataclass(frozen=True)
class MultipathSpec:
    """Static multipath channel: strictly increasing delays, first path at 0.
    :meth:`from_gamma` builds one with the exponential profile."""

    delays: tuple
    gains: tuple

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        g = np.asarray(self.gains, dtype=float)
        if d.ndim != 1 or d.size == 0 or d.size != g.size:
            raise ValueError("delays and gains must be equal-length non-empty sequences")
        if d[0] != 0.0:
            raise ValueError(f"first path delay must be 0, got {d[0]}")
        if np.any(np.diff(d) <= 0):
            raise ValueError("delays must be strictly increasing")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        object.__setattr__(self, "delays", tuple(float(x) for x in d))
        object.__setattr__(self, "gains", tuple(float(x) for x in g))

    @classmethod
    def from_gamma(cls, gamma: float, delays: Sequence[float]) -> "MultipathSpec":
        return cls(tuple(float(x) for x in delays),
                   tuple(gains_from_gamma(gamma, delays)))

    def delay_samples(self, n_c: int) -> np.ndarray:
        """Delays as sample counts; rejects delays off the 1/n_c grid."""
        scaled = np.asarray(self.delays) * n_c
        rounded = np.round(scaled)
        if np.any(np.abs(scaled - rounded) > 1e-9):
            bad = self.delays[int(np.argmax(np.abs(scaled - rounded)))]
            raise ValueError(
                f"delay {bad} symbol periods is not a multiple of 1/{n_c}"
            )
        return rounded.astype(int)


@dataclass(frozen=True)
class QuasiStaticModel:
    """Per-frame redraw of gamma over a uniform range; delay set fixed."""

    gamma_min: float = 0.3
    gamma_max: float = 0.9
    delays: tuple = (0.0, 1.0)

    def __post_init__(self):
        if not 0 < self.gamma_min < self.gamma_max:
            raise ValueError(
                f"need 0 < gamma_min < gamma_max, got ({self.gamma_min}, {self.gamma_max})"
            )


def propagate(samples: np.ndarray, spec: MultipathSpec, n_c: int) -> np.ndarray:
    """Apply the tapped delay line. Output grows by the maximum delay.

    out[k] = sum_l alpha_l * in[k - tau_l*n_c], with zeros assumed before
    the start of the input.
    """
    x = np.asarray(samples, dtype=float)
    taps = spec.delay_samples(n_c)
    out = np.zeros(x.size + taps[-1])
    for alpha, d in zip(spec.gains, taps):
        out[d:d + x.size] += alpha * x
    return out


def calibrate_noise(eb_n0_db: float, waveform_energy_per_bit: float) -> float:
    """Per-sample noise sigma for a target Eb/N0.

    ``waveform_energy_per_bit`` is the measured sample-sum energy of one
    bit's worth of transmitted waveform (long-run average), so the rate
    factor is already folded in: sigma^2 = E_b / (2 * 10^(dB/10)) per
    baseband dimension. An Eb/N0 so extreme that sigma is not finite and
    positive raises a ValueError.
    """
    if waveform_energy_per_bit <= 0:
        raise ValueError(
            f"energy per bit must be positive, got {waveform_energy_per_bit}"
        )
    try:
        sigma = float(np.sqrt(waveform_energy_per_bit
                              / (2.0 * 10.0 ** (eb_n0_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"Eb/N0 = {eb_n0_db} dB gives no finite, positive "
                         f"noise sigma")
    return sigma


def draw_gamma(model: QuasiStaticModel, rng: np.random.Generator) -> float:
    """One uniform draw of the damping coefficient (one per frame)."""
    return float(rng.uniform(model.gamma_min, model.gamma_max))


STATIC_PRESETS = {
    "static2": MultipathSpec.from_gamma(0.6, (0.0, 1.0)),
    "static3": MultipathSpec.from_gamma(0.6, (0.0, 1.0, 2.0)),
}

QUASI_PRESETS = {
    "quasi2": QuasiStaticModel(0.3, 0.9, (0.0, 1.0)),
    "quasi3": QuasiStaticModel(0.3, 0.9, (0.0, 1.0, 2.0)),
}


def get_preset(name: str):
    """Look up a channel preset; "quasi" aliases the 2-path quasi model."""
    key = "quasi2" if name == "quasi" else name
    if key in STATIC_PRESETS:
        return STATIC_PRESETS[key]
    if key in QUASI_PRESETS:
        return QUASI_PRESETS[key]
    known = sorted([*STATIC_PRESETS, *QUASI_PRESETS, "quasi"])
    raise ValueError(f"unknown channel preset {name!r}; known: {', '.join(known)}")
