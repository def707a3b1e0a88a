"""Conventional linear-modem comparator: root-raised-cosine shaping with
symbol-rate linear MMSE equalization.

The RRC pulse has rolloff ROLLOFF and spans SPAN symbol periods, and like
the chaotic pulse (``waveform.shaping_taps``) it is a cached, read-only
tap array that depends on n_c only: ``rrc_taps(n_c)``. The
shaper/matched-filter cascade is a raised cosine (``symbol_cascade``), so
on the symbol grid the channel seen by the equalizer is just the multipath
taps themselves (Nyquist criterion, up to the truncation floor of the
finite span), and the equalizer is designed from those gains at
whole-symbol delays. An equalizer is a plain array of EQ_LENGTH taps:
``design_mmse`` returns one row per channel, and ``apply_equalizer`` runs
each row over both rails of its grid point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

ROLLOFF = 0.25
# A span of 8 leaves ~4e-3 relative ISI in the cascade at symbol lags,
# which busts NYQUIST_TOL; 16 is the shortest even span that clears it
# comfortably (~5e-4) at rolloff 0.25.
SPAN = 16
EQ_LENGTH = 15
EQ_DELAY = 7
NYQUIST_TOL = 1e-3


@lru_cache(maxsize=None, typed=True)  # so 8.0 fails the check, not reuses 8
def rrc_taps(n_c: int) -> np.ndarray:
    """Unit-energy root-raised-cosine taps on the grid t = k / n_c,
    |t| <= SPAN / 2 (SPAN * n_c + 1 taps, symmetric about the center).
    Read-only, because every caller shares them.

    Standard closed form in symbol-period units, a = ROLLOFF,

        h(t) = [sin(pi t (1-a)) + 4 a t cos(pi t (1+a))]
               / [pi t (1 - (4 a t)^2)],

    with the removable singularities filled in by their limits: at t = 0,
    h = 1 - a + 4 a / pi; at t = +-1/(4a), which is k = +-n_c at a = 1/4,
    h = (a / sqrt 2) [(1 + 2/pi) sin(pi/(4a)) + (1 - 2/pi) cos(pi/(4a))].
    Taps are scaled to unit energy so the matched-filter cascade peaks at 1.
    An n_c whose truncated cascade leaves NYQUIST_TOL relative ISI or more
    at a nonzero symbol lag is rejected.
    """
    if not (isinstance(n_c, (int, np.integer)) and n_c >= 2):
        raise ValueError(f"n_c must be an integer >= 2, got {n_c}")
    a = ROLLOFF
    k = np.arange(-(SPAN * n_c) // 2, (SPAN * n_c) // 2 + 1)
    t = k / n_c
    num = np.sin(np.pi * t * (1.0 - a)) + 4.0 * a * t * np.cos(np.pi * t * (1.0 + a))
    den = np.pi * t * (1.0 - (4.0 * a * t) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = num / den
    h[k == 0] = 1.0 - a + 4.0 * a / np.pi
    h[np.abs(k) == n_c] = (a / math.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * a))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * a)))
    h = h / math.sqrt(math.fsum(h * h))
    c = symbol_cascade(h, n_c)
    worst = float(np.max(np.abs(np.delete(c, SPAN))))
    if worst >= NYQUIST_TOL * c[SPAN]:
        raise ValueError(
            f"the truncated RRC cascade leaves {worst / c[SPAN]:.1e} relative "
            f"ISI at symbol lags, at or above the limit {NYQUIST_TOL:g}")
    h.flags.writeable = False
    return h


def symbol_cascade(taps, n_c: int) -> np.ndarray:
    """The cascade of RRC ``taps`` with their matched filter at the symbol
    lags -SPAN..SPAN, where it is nonzero: the energy at lag 0, the
    truncation's residual ISI elsewhere. ``rrc_taps`` checks it."""
    return np.convolve(taps, taps[::-1])[::n_c]


def rrc_shape(symbols, n_c: int) -> np.ndarray:
    """Zero-stuff one rail to n_c samples per symbol and filter with
    ``rrc_taps(n_c)``.

    Output length is (n_symbols + SPAN) * n_c; the pulse of symbol m peaks
    at sample (m + SPAN / 2) * n_c, which is the group delay the receive
    side undoes.
    """
    taps = rrc_taps(n_c)
    s = np.asarray(symbols, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("symbols must be a nonempty 1-d array")
    up = np.zeros(s.size * n_c)
    up[::n_c] = s
    return np.convolve(up, taps)


def rrc_matched_filter(baseband, n_c: int) -> np.ndarray:
    """Convolve with the time-reversed pulse. For a rail out of rrc_shape
    the cascade peak of symbol m lands at sample (m + SPAN) * n_c."""
    x = np.asarray(baseband, dtype=float)
    return np.convolve(x, rrc_taps(n_c)[::-1])


def design_mmse(gains, noise_var) -> np.ndarray:
    """Regularized least-squares equalizers w = (H^T H + sigma^2 I)^-1 H^T e_d
    of EQ_LENGTH taps at the decision delay EQ_DELAY.

    H is the (EQ_LENGTH + D - 1) x EQ_LENGTH convolution matrix of the
    symbol-rate channel, e_d the unit vector at the decision delay. For
    unit-variance independent symbols and white noise of variance sigma^2
    at the matched-filter output this is the linear MMSE solution. A
    sigma^2 of 0 gives the zero-forcing limit, which raises LinAlgError if
    H is rank deficient.

    ``gains`` holds one channel per row, shape (P, D), column d the gain
    at symbol delay d, or one row (1, D) shared by the P noise variances
    ``noise_var``, shape (P,). Returns the taps, shape (P, EQ_LENGTH), in
    row order. Every row is solved at span D in one stacked matmul and
    solve, which treat each item as its own 2-d product and solve; a zero
    gain only adds exact zeros to H^T H and H^T e_d. So a row's taps are
    bitwise the same designed alone, in a batch, or with its trailing
    zero gains trimmed.
    """
    sigma2 = np.asarray(noise_var, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if sigma2.ndim != 1 or gains.ndim != 2:
        raise ValueError(f"gains of shape {gains.shape} must be 2-d and "
                         f"noise_var of shape {sigma2.shape} 1-d")
    gains = np.broadcast_to(gains, (sigma2.size, gains.shape[1]))
    if np.any(sigma2 < 0.0):
        raise ValueError("noise_var must be >= 0")
    span = gains.shape[1]
    # column j of H holds h from row j on
    j = np.arange(EQ_LENGTH)[:, None]
    H = np.zeros((sigma2.size, EQ_LENGTH + span - 1, EQ_LENGTH))
    H[:, j + np.arange(span), j] = gains[:, None, :]
    zf = sigma2 == 0.0
    if zf.any() and np.any(np.linalg.matrix_rank(H[zf]) < EQ_LENGTH):
        raise np.linalg.LinAlgError(
            "zero noise variance with rank-deficient channel matrix")
    e_d = np.zeros(H.shape[1])
    e_d[EQ_DELAY] = 1.0
    Ht = H.transpose(0, 2, 1)
    return np.linalg.solve(Ht @ H + sigma2[:, None, None] * np.eye(EQ_LENGTH),
                           (Ht @ e_d)[..., None])[..., 0]


def apply_equalizer(symbols_rx, taps) -> np.ndarray:
    """Equalize symbol-rate observations of shape (..., P, 2, n), the two
    rails at each of P grid points, with ``taps``, one ``design_mmse`` row
    per point, shape (P, EQ_LENGTH) or, one set per leading row, (...,
    P, EQ_LENGTH), and undo the decision delay, so output n estimates
    symbol n. The observations are zero-padded by the taps'
    reach at both ends, so edge symbols see a partial window, as a full
    convolution gives them. Every output is one product of its sliding
    window with the reversed taps, summed by ``np.einsum``, not BLAS; it
    equals the per-rail ``np.convolve`` to rounding."""
    y = np.asarray(symbols_rx, dtype=float)
    n = y.shape[-1]
    padded = np.zeros(y.shape[:-1] + (n + EQ_LENGTH - 1,))
    padded[..., EQ_LENGTH - 1 - EQ_DELAY:EQ_LENGTH - 1 - EQ_DELAY + n] = y
    window = np.lib.stride_tricks.sliding_window_view(padded, EQ_LENGTH,
                                                      axis=-1)
    return np.einsum("...pcki,...pi->...pck", window,
                     np.ascontiguousarray(np.asarray(taps)[..., ::-1]))
