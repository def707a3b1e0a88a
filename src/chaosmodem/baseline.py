"""Conventional linear-modem comparator: root-raised-cosine shaping with
symbol-rate linear MMSE equalization.

The shaper/matched-filter cascade is a raised cosine, so on the symbol grid
the channel seen by the equalizer is just the multipath taps themselves
(Nyquist criterion, up to the truncation floor of the finite span).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .rxchain import ChannelEstimate

DEFAULT_ROLLOFF = 0.25
# A span of 8 leaves ~4e-3 relative ISI in the cascade at symbol lags,
# which busts the Nyquist tolerance the filter type enforces; 16 is the
# shortest even span that clears it comfortably (~5e-4) at rolloff 0.25.
DEFAULT_SPAN = 16
DEFAULT_EQ_LENGTH = 15
DEFAULT_EQ_DELAY = 7
NYQUIST_TOL = 1e-3


@dataclass(frozen=True)
class RrcFilter:
    """Unit-energy root-raised-cosine FIR, span symbol periods at n_c
    samples per symbol (span * n_c + 1 taps, symmetric about the center).

    Build it with `rrc_taps`, which validates rolloff, span and n_c.
    Construction rejects span/rolloff combinations whose truncated
    shaper * matched-filter cascade leaves more than NYQUIST_TOL relative
    ISI at nonzero symbol lags, so a held instance is always Nyquist-clean
    to that tolerance."""

    rolloff: float
    span: int
    n_c: int
    taps: np.ndarray

    def __post_init__(self):
        if self.taps.shape != (self.span * self.n_c + 1,):
            raise ValueError("taps must have span * n_c + 1 coefficients")
        c = self.symbol_cascade(self.span)
        peak = c[self.span]
        worst = float(np.max(np.abs(np.delete(c, self.span))))
        if worst >= NYQUIST_TOL * peak:
            raise ValueError(
                "truncated cascade leaves {:.1e} relative ISI at symbol lags; "
                "increase span for this rolloff".format(worst / peak))

    @property
    def center(self) -> int:
        return (self.span * self.n_c) // 2

    def symbol_cascade(self, max_lag: int) -> np.ndarray:
        """Shaper * matched-filter cascade sampled at integer symbol lags
        -max_lag..max_lag. Lag 0 is the energy (1 after normalization);
        other lags are the residual ISI of the truncated raised cosine."""
        c = np.convolve(self.taps, self.taps[::-1])
        idx = self.span * self.n_c + np.arange(-max_lag, max_lag + 1) * self.n_c
        out = np.zeros(idx.size)
        ok = (idx >= 0) & (idx < c.size)
        out[ok] = c[idx[ok]]
        return out


@lru_cache(maxsize=None)
def rrc_taps(rolloff: float, span: int, n_c: int) -> RrcFilter:
    """Root-raised-cosine taps on the grid t = k / n_c, |t| <= span / 2.

    Standard closed form in symbol-period units,

        h(t) = [sin(pi t (1-a)) + 4 a t cos(pi t (1+a))]
               / [pi t (1 - (4 a t)^2)],

    with the removable singularities filled in by their limits: at t = 0,
    h = 1 - a + 4 a / pi; at t = +-1/(4a),
    h = (a / sqrt 2) [(1 + 2/pi) sin(pi/(4a)) + (1 - 2/pi) cos(pi/(4a))].
    Taps are scaled to unit energy so the matched-filter cascade peaks at 1.
    """
    if not 0.0 < rolloff <= 1.0:
        raise ValueError("rolloff must be in (0, 1]")
    if span != int(span) or span < 6 or span % 2:
        raise ValueError("span must be an even integer >= 6")
    if n_c != int(n_c) or n_c < 2:
        raise ValueError("n_c must be an integer >= 2")
    a = float(rolloff)
    k = np.arange(-(span * n_c) // 2, (span * n_c) // 2 + 1)
    t = k / n_c
    num = np.sin(np.pi * t * (1.0 - a)) + 4.0 * a * t * np.cos(np.pi * t * (1.0 + a))
    den = np.pi * t * (1.0 - (4.0 * a * t) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = num / den
    h[k == 0] = 1.0 - a + 4.0 * a / np.pi
    # |4 a t| = 1 on the sample grid only when n_c is divisible by 4a's
    # denominator; detect by value, not index.
    sing = np.isclose(np.abs(4.0 * a * t), 1.0, rtol=0.0, atol=1e-12) & (k != 0)
    if np.any(sing):
        lim = (a / math.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * a))
            + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * a))
        )
        h[sing] = lim
    h = h / math.sqrt(float(np.dot(h, h)))
    return RrcFilter(a, int(span), int(n_c), h)


def rrc_shape(symbols, filt: RrcFilter) -> np.ndarray:
    """Zero-stuff one rail to the filter's n_c samples per symbol and
    filter.

    Output length is (n_symbols + span) * n_c; the pulse of symbol m peaks
    at sample (m + span / 2) * n_c, which is the group delay the receive
    side undoes.
    """
    s = np.asarray(symbols, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("symbols must be a nonempty 1-d array")
    up = np.zeros(s.size * filt.n_c)
    up[:: filt.n_c] = s
    return np.convolve(up, filt.taps)


def rrc_matched_filter(baseband, filt: RrcFilter) -> np.ndarray:
    """Convolve with the time-reversed pulse. For a rail out of rrc_shape
    the cascade peak of symbol m lands at sample (m + span) * n_c."""
    x = np.asarray(baseband, dtype=float)
    return np.convolve(x, filt.taps[::-1])


@dataclass(frozen=True)
class MmseEqualizer:
    """Symbol-spaced linear MMSE equalizer. residual is the squared
    deviation of the equalized cascade from a pure delay, i.e. the
    noiseless mean-square error per unit-power symbols."""

    length: int
    delay: int
    taps: np.ndarray
    noise_var: float
    residual: float

    def __post_init__(self):
        if self.length < 1 or self.taps.shape != (self.length,):
            raise ValueError("taps must have shape (length,)")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("equalizer taps must be finite")
        if self.noise_var < 0.0:
            raise ValueError("noise_var must be >= 0")


def _symbol_channel(estimate: ChannelEstimate) -> np.ndarray:
    """Multipath taps laid out on the symbol grid. The presets and the LS
    candidate set both live on integer symbol delays; anything else has no
    symbol-rate convolution matrix and is rejected."""
    delays = np.asarray(estimate.delays, dtype=float)
    near = np.rint(delays)
    if np.max(np.abs(delays - near)) > 1e-9 or np.min(near) < 0:
        raise ValueError("equalizer design needs nonnegative integer symbol delays")
    h = np.zeros(int(near.max()) + 1)
    for d, g in zip(near.astype(int), np.asarray(estimate.gains, dtype=float)):
        h[d] += g
    return h


def design_mmse(estimate: ChannelEstimate, length: int = DEFAULT_EQ_LENGTH,
                delay: int = DEFAULT_EQ_DELAY,
                noise_var: Optional[float] = None) -> MmseEqualizer:
    """Regularized least-squares equalizer w = (H^T H + sigma^2 I)^-1 H^T e_d.

    H is the (length + channel_span) x length convolution matrix of the
    estimated symbol-rate channel, e_d the unit vector at the decision
    delay. For unit-variance independent symbols and white noise of
    variance sigma^2 at the matched-filter output this is the linear MMSE
    solution. sigma^2 defaults to the estimate's noise_var; pass 0 for the
    zero-forcing limit, which raises LinAlgError if H is rank deficient.
    """
    h = _symbol_channel(estimate)
    sigma2 = float(estimate.noise_var if noise_var is None else noise_var)
    if sigma2 < 0.0:
        raise ValueError("noise_var must be >= 0")
    n_out = length + h.size - 1
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 0 <= delay < n_out:
        raise ValueError("delay must lie inside the cascade support")
    H = np.zeros((n_out, length))
    for j in range(length):
        H[j : j + h.size, j] = h
    if sigma2 == 0.0 and np.linalg.matrix_rank(H) < length:
        raise np.linalg.LinAlgError(
            "zero noise variance with rank-deficient channel matrix")
    e_d = np.zeros(n_out)
    e_d[delay] = 1.0
    w = np.linalg.solve(H.T @ H + sigma2 * np.eye(length), H.T @ e_d)
    residual = float(np.sum((H @ w - e_d) ** 2))
    return MmseEqualizer(length, delay, w, sigma2, residual)


def apply_equalizer(symbols_rx, eq: MmseEqualizer) -> np.ndarray:
    """Run the FIR and undo the decision delay, so output n estimates
    symbol n. Edge symbols see a partial window."""
    y = np.asarray(symbols_rx, dtype=float)
    full = np.convolve(y, eq.taps)
    return full[eq.delay : eq.delay + y.size]

