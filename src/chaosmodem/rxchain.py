"""Receiver chain: matched filtering, synchronization, least-squares
channel estimation, threshold decoding.

The matched filter correlates against the time-reverse g(t) = p(-t) of the
transmit pulse, realized as a sample-rate FIR whose taps are g on the
1/n_c grid. Its cascade with the shaping filter reproduces the closed-form
pulse autocorrelation at symbol instants, which is what every threshold
formula here consumes.

Decoding offers two thresholds: a genie-aided optimal one that cancels
intersymbol interference exactly using the true symbols (analysis only),
and the causal one that feeds back the receiver's own past decisions over
a short window, primed by the training prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .theory import composite_response, response_decay_radius
from .waveform import WaveformParams, _eval_basis_array


@dataclass(frozen=True)
class MatchedFilterTaps:
    """Receive FIR kernel k_j = g(j/n_c) = p(-j/n_c) for j in
    [-(n_c-1), n_p*n_c], the time-reverse of the shaping taps."""

    kernel: np.ndarray
    n_c: int
    params: WaveformParams


def matched_filter_taps(n_c: int, params: Optional[WaveformParams] = None) -> MatchedFilterTaps:
    if params is None:
        params = WaveformParams()
    if not (isinstance(n_c, (int, np.integer)) and n_c >= 2):
        raise ValueError(f"oversampling rate must be an integer >= 2, got {n_c}")
    j = np.arange(-(n_c - 1), params.n_p * n_c + 1)
    return MatchedFilterTaps(_eval_basis_array(-j / n_c),
                             int(n_c), params)


def matched_filter(baseband, taps: MatchedFilterTaps) -> np.ndarray:
    """Correlate with the pulse at sample rate.

    Output index k corresponds to time k/n_c like the input; the n_c - 1
    noncausal kernel samples are absorbed so no extra delay appears.
    Output runs n_p*n_c samples past the input to hold the response tail.
    """
    x = np.asarray(baseband, dtype=float)
    if x.ndim != 1:
        raise ValueError("baseband must be 1-d")
    n_c = taps.n_c
    full = np.convolve(x, taps.kernel)
    return full[n_c - 1:n_c - 1 + x.size + taps.params.n_p * n_c] / n_c


@dataclass(frozen=True)
class SyncResult:
    offset: int
    peak: float
    peak_ratio: float
    ok: bool


def frame_sync(filtered, template, lobe_guard: int = 8) -> SyncResult:
    """Locate the training prefix by normalized cross-correlation.

    The best offset maximizes correlation normalized by the local signal
    norm; sync is declared failed when the winning peak is not at least
    1.5x the best peak outside a ``lobe_guard``-sample exclusion zone.
    """
    x = np.asarray(filtered, dtype=float)
    t = np.asarray(template, dtype=float)
    if t.size == 0 or x.size < t.size:
        raise ValueError("filtered stream shorter than the template")
    num = np.correlate(x, t, mode="valid")
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    win_energy = csum[t.size:] - csum[:-t.size]
    den = np.sqrt(win_energy * float(np.dot(t, t)))
    corr = np.abs(num) / np.maximum(den, 1e-30)
    best = int(np.argmax(corr))
    peak = float(corr[best])
    aside = corr.copy()
    lo = max(0, best - lobe_guard)
    aside[lo:best + lobe_guard + 1] = 0.0
    second = float(aside.max())
    ratio = peak / max(second, 1e-30)
    return SyncResult(best, peak, ratio, ratio >= 1.5)


def sample_symbols(filtered, offset: int, n_c: int, n_symbols: int) -> np.ndarray:
    """Pick one matched-filter output per symbol period."""
    x = np.asarray(filtered, dtype=float)
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    last = offset + (n_symbols - 1) * n_c
    if n_symbols < 1 or last >= x.size:
        raise ValueError(
            f"requested {n_symbols} symbols from offset {offset} but the "
            f"stream has {x.size} samples")
    return x[offset + np.arange(n_symbols) * n_c]


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-path delays/gains plus the residual noise power at the
    matched-filter output."""

    delays: tuple
    gains: np.ndarray
    noise_var: float

    def __post_init__(self):
        d = tuple(float(v) for v in self.delays)
        g = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "gains", g)
        if len(d) == 0 or len(d) != g.size:
            raise ValueError("delays and gains must be non-empty and equal length")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("delays must be strictly increasing")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        if not (np.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")

    @property
    def tau_max(self) -> float:
        return self.delays[-1]


@dataclass(frozen=True)
class LsDesign:
    """Precomputed least-squares machinery for a fixed training sequence.

    Stage one regresses symbol-rate observations on shifts of the training
    to recover the composite response on integer lags; the pseudoinverse
    is built once because the training never changes within an experiment.
    A design over several rails stacks their regressions in rail order, so
    one fit pools them.
    """

    pinv: np.ndarray
    rows: slice
    lags: np.ndarray
    design: np.ndarray


def build_ls_design(train_syms, max_delay: int = 3, lag_back: int = 6) -> LsDesign:
    """Design for one training rail, or for a 2-d array of equally long
    rails (one per row) observed through the same channel."""
    s = np.atleast_2d(np.asarray(train_syms, dtype=float))
    n_t = s.shape[1]
    lags = np.arange(-lag_back, lag_back + max_delay + 1)
    n_unknown = lags.size
    lo, hi = lag_back + max_delay, n_t - lag_back
    if hi - lo < 4 * n_unknown:
        raise ValueError(
            f"training of {n_t} symbols gives {hi - lo} usable rows; "
            f"need at least {4 * n_unknown} for {n_unknown} unknowns")
    rows_n = np.arange(lo, hi)
    design = s[:, rows_n[:, None] - lags[None, :]].reshape(-1, n_unknown)
    rank = np.linalg.matrix_rank(design)
    if rank < n_unknown:
        raise ValueError("training sequence is rank deficient for channel estimation")
    return LsDesign(np.linalg.pinv(design), slice(lo, hi), lags, design)


def estimate_channel_ls(obs, design: LsDesign, cascade,
                        spur_threshold: float = 0.05) -> ChannelEstimate:
    """Two-stage least squares: composite response on integer lags first,
    then per-path gains by matching the pulse's known cascade.

    ``obs`` holds the symbol-rate matched-filter outputs at ``design.rows``
    of each rail, concatenated in the design's rail order. ``cascade[i, d]``
    is the shaping/matched-filter cascade at symbol lag
    ``design.lags[i] - d`` for candidate path delay d = 0, 1, ...; paths
    below ``spur_threshold`` of the strongest recovered gain are dropped
    and the survivors refit. Residual power from stage one estimates the
    noise variance at the matched-filter output.
    """
    obs = np.asarray(obs, dtype=float)
    r_hat = design.pinv @ obs
    resid = obs - design.design @ r_hat
    dof = obs.size - design.lags.size
    noise_var = float(np.dot(resid, resid)) / max(dof, 1)

    cand = np.arange(cascade.shape[1], dtype=float)
    alpha, *_ = np.linalg.lstsq(cascade, r_hat, rcond=None)
    keep = np.abs(alpha) >= spur_threshold * np.max(np.abs(alpha))
    if spur_threshold > 0 and not np.all(keep):
        alpha, *_ = np.linalg.lstsq(cascade[:, keep], r_hat, rcond=None)
        cand = cand[keep]
    return ChannelEstimate(tuple(cand), alpha, noise_var)


def threshold_optimal(symbols, estimate) -> np.ndarray:
    """Genie threshold: the full interference sum over every other symbol,
    past and future, through the estimated paths. Truncated where the
    pulse autocorrelation falls below 1e-9."""
    s = np.asarray(symbols, dtype=float)
    radius = response_decay_radius(1e-9)
    tau_max = int(math.ceil(max(estimate.delays)))
    d = np.arange(-radius, radius + tau_max + 1, dtype=float)
    c = composite_response(d, estimate)
    c0 = composite_response(0.0, estimate)
    full = np.convolve(s, c)
    theta = full[radius:radius + s.size] - s * c0
    return theta


def isi_feedback_coeffs(estimate, window: int) -> np.ndarray:
    """Composite response at past integer lags 1..window."""
    k = np.arange(1, window + 1, dtype=float)
    return composite_response(k, estimate)


def decision_window(estimate) -> int:
    """Length of the past-decision feedback window: 5 plus the span of the
    channel in whole symbols."""
    return 5 + int(math.ceil(max(estimate.delays)))


def decide(y, theta):
    """Threshold decision; boundary goes to +1."""
    y_arr = np.asarray(y, dtype=float)
    out = np.where(y_arr >= np.asarray(theta, dtype=float), 1.0, -1.0)
    if np.ndim(y) == 0:
        return float(out)
    return out


def _dd_loop(y, out, coeffs, n_start):
    w = coeffs.shape[0]
    for n in range(n_start, y.shape[0]):
        th = 0.0
        for k in range(1, w + 1):
            m = n - k
            if m >= 0:
                th += out[m] * coeffs[k - 1]
        out[n] = 1.0 if y[n] >= th else -1.0


def decode_suboptimal(y_syms, train_syms, estimate: ChannelEstimate) -> np.ndarray:
    """Decision-directed decoding of a frame.

    The known training symbols prime the feedback window; every later
    decision feeds back into the thresholds for the symbols after it.
    Returns the full bipolar decision sequence (training region echoed).
    """
    y = np.asarray(y_syms, dtype=float)
    train = np.asarray(train_syms, dtype=float)
    if train.size > y.size:
        raise ValueError("training longer than the observed frame")
    w = decision_window(estimate)
    coeffs = isi_feedback_coeffs(estimate, w)
    out = np.empty(y.size)
    out[:train.size] = train
    _dd_loop(y, out, coeffs, train.size)
    return out

