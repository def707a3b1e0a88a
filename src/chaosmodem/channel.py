"""Multipath channel model: tapped delay line and noise calibration.

A channel is a 1-d array of path gains at whole-symbol delays: entry d
is the gain of the path d symbol periods late, and a path is present
exactly when its gain is nonzero. Gains built from a damping coefficient
follow the negative exponential profile alpha_d = exp(-gamma * d); the
static presets are such arrays, read-only. ``propagate`` sums the paths
of every stream the sweeps send, at full rate and at symbol rate alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gains_from_gamma(gamma: float, n_paths: int) -> np.ndarray:
    """The exponential profile alpha_d = exp(-gamma * d), d < n_paths."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return np.exp(-gamma * np.arange(n_paths))


@dataclass(frozen=True)
class QuasiStaticModel:
    """Per-frame redraw of gamma over a uniform range; path count fixed."""

    gamma_min: float
    gamma_max: float
    n_paths: int

    def __post_init__(self):
        if not 0 < self.gamma_min < self.gamma_max:
            raise ValueError(
                f"need 0 < gamma_min < gamma_max, got ({self.gamma_min}, {self.gamma_max})"
            )


def propagate(samples: np.ndarray, gains, n_c: int) -> np.ndarray:
    """Apply the tapped delay line to streams (..., N) through one channel
    (D,) or one per stream (..., D); output grows by the last path's delay.

    out[..., k] = sum_d alpha_d * in[..., k - d*n_c], summed in delay order
    from zeros, with zeros assumed before the start of the input.
    """
    x, g = np.asarray(samples, dtype=float), np.asarray(gains)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], g.shape[:-1])
                   + (x.shape[-1] + (g.shape[-1] - 1) * n_c,))
    for d in range(g.shape[-1]):
        out[..., d * n_c:d * n_c + x.shape[-1]] += g[..., d, None] * x
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
    "static2": gains_from_gamma(0.6, 2),
    "static3": gains_from_gamma(0.6, 3),
}
for _gains in STATIC_PRESETS.values():
    _gains.flags.writeable = False

QUASI_PRESETS = {
    "quasi2": QuasiStaticModel(0.3, 0.9, 2),
    "quasi3": QuasiStaticModel(0.3, 0.9, 3),
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
