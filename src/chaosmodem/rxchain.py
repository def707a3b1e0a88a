"""Receiver chain: matched filtering, synchronization, least-squares
channel estimation, threshold decoding.

The matched filter correlates against the time-reverse g(t) = p(-t) of the
transmit pulse: its sample-rate FIR is ``waveform.shaping_taps`` reversed,
so it needs only n_c. Its cascade with the
shaping filter reproduces the closed-form pulse autocorrelation at symbol
instants, which is what every threshold formula here consumes.

Decoding offers two thresholds: a genie-aided optimal one that cancels
intersymbol interference exactly using the true symbols (analysis only),
and the causal one that feeds back the receiver's own past decisions over
a short window, primed by the training prefix.

A channel is an array of its gains at whole-symbol delays 0..D-1, as in
``channel``, here one row per channel. ``composite_response`` sums a
pulse's cascade over a channel's paths, for the genie response and the
decision-feedback coefficients alike. The least-squares model is fixed
by the constants below and built once per training block and pulse as an
``LsDesign``; ``estimate_channel_ls`` returns gains rows and noise
variances, which ``decision_window`` and ``baseline.design_mmse`` read. A
path is present exactly when its gain is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import DECAY_RADIUS
from .waveform import shaping_taps

_PLUS, _MINUS = np.int8(1), np.int8(-1)

# least squares fits paths at delays 0..MAX_DELAY symbols to the composite
# response at LAGS and drops those below SPUR_THRESHOLD of the strongest
MAX_DELAY = 3
LAG_BACK = 6
LAGS = np.arange(-LAG_BACK, LAG_BACK + MAX_DELAY + 1)
LAGS.flags.writeable = False
SPUR_THRESHOLD = 0.05


def matched_filter(baseband, n_c: int) -> np.ndarray:
    """Correlate with the pulse at sample rate: convolve with the reversed
    ``shaping_taps``, g(j/n_c) = p(-j/n_c) for j in [-(n_c-1), N_P*n_c].

    Output index k corresponds to time k/n_c like the input; the n_c - 1
    noncausal kernel samples are absorbed so no extra delay appears.
    Output runs N_P*n_c samples past the input to hold the response tail.
    """
    x = np.asarray(baseband, dtype=float)
    if x.ndim != 1:
        raise ValueError("baseband must be 1-d")
    taps = shaping_taps(n_c)
    full = np.convolve(x, taps[::-1])
    return full[n_c - 1:x.size + taps.size - 1] / n_c


def frame_sync(signal, template, noise, sigmas):
    """Locate the training prefix by normalized cross-correlation in the
    streams signal + sigma * noise, one per entry of ``sigmas``: per
    stream, the offset that maximizes the correlation with ``template``
    normalized by the local stream norm. Returns one offset per sigma.

    ``signal`` and ``noise`` are equally long 1-d streams, or stacks of
    them, one window per row, shape (F, L); a stack returns one row of
    offsets per window, shape (F, sigmas), each what its row alone gives.
    The streams are never formed: correlation is linear, so each stream's
    correlation is corr(signal) + sigma corr(noise), from one
    ``np.correlate`` of each row, and its window energy is S + 2 sigma X +
    sigma^2 N from the running sums of signal^2, signal * noise and
    noise^2, clipped at zero against rounding. Offsets agree with a
    correlation of each formed stream except where two candidates tie to
    rounding.
    """
    s = np.asarray(signal, dtype=float)
    n = np.asarray(noise, dtype=float)
    t = np.asarray(template, dtype=float)
    if s.ndim not in (1, 2) or n.shape != s.shape:
        raise ValueError(f"signal {s.shape} and noise {n.shape} must be "
                         f"equally long 1-d streams or stacks of them")
    if t.size == 0 or s.shape[-1] < t.size:
        raise ValueError("signal shorter than the template")
    one = s.ndim == 1
    s, n = np.atleast_2d(s, n)
    sig = np.asarray(sigmas, dtype=float)[:, None]
    corr = np.array([[np.correlate(row, t, mode="valid") for row in x]
                     for x in (s, n)])
    num = corr[0][:, None] + sig * corr[1][:, None]
    csum = np.zeros((3, s.shape[0], s.shape[1] + 1))
    np.cumsum(np.stack([s * s, s * n, n * n]), axis=2, out=csum[..., 1:])
    s2, sn, n2 = (csum[..., t.size:] - csum[..., :-t.size])[:, :, None]
    win_energy = np.maximum(s2 + 2.0 * sig * sn + sig * sig * n2, 0.0)
    den = np.sqrt(win_energy * float(np.dot(t, t)))
    offsets = np.argmax(np.abs(num) / np.maximum(den, 1e-30), axis=2)
    return offsets[0] if one else offsets


@dataclass(frozen=True)
class LsDesign:
    """The least-squares channel model of one training block, read-only.

    Stage one regresses the observations at ``rows`` of each rail, in rail
    order, on the training shifted by ``LAGS``: ``design`` and its
    ``pinv``. Stage two fits the path gains to that response:
    ``solvers[mask]`` is the pseudoinverse of the pulse cascade over the
    delays d whose bit ``1 << d`` the mask sets, zero rows elsewhere.
    ``basis`` is an orthonormal basis of the span of ``design @ cascade``.
    """

    pinv: np.ndarray
    rows: slice
    design: np.ndarray
    solvers: np.ndarray
    basis: np.ndarray


def build_ls_design(train_syms, cascade) -> LsDesign:
    """The model of one training rail, or of a 2-d array of equally long
    rails (one per row) observed through the same channel, for a pulse
    whose cascade at ``LAGS[i] - d`` is ``cascade[i, d]``."""
    s = np.atleast_2d(np.asarray(train_syms, dtype=float))
    n_t = s.shape[1]
    n_unknown = LAGS.size
    lo, hi = LAG_BACK + MAX_DELAY, n_t - LAG_BACK
    if hi - lo < 4 * n_unknown:
        raise ValueError(
            f"training of {n_t} symbols gives {hi - lo} usable rows; "
            f"need at least {4 * n_unknown} for {n_unknown} unknowns")
    design = s[:, np.arange(lo, hi)[:, None] - LAGS].reshape(-1, n_unknown)
    if np.linalg.matrix_rank(design) < n_unknown:
        raise ValueError("training sequence is rank deficient for channel estimation")
    c = np.asarray(cascade, dtype=float)
    solvers = np.zeros((1 << (MAX_DELAY + 1), MAX_DELAY + 1, n_unknown))
    for mask in range(1, solvers.shape[0]):
        kept = [d for d in range(MAX_DELAY + 1) if mask >> d & 1]
        solvers[mask, kept] = np.linalg.pinv(c[:, kept])
    model = LsDesign(np.linalg.pinv(design), slice(lo, hi), design, solvers,
                     np.linalg.qr(design @ c)[0])
    for a in (model.pinv, design, solvers, model.basis):
        a.flags.writeable = False
    return model


def estimate_channel_ls(obs, design: LsDesign):
    """Two-stage least squares: composite response on integer lags first,
    then per-path gains by matching the pulse's known cascade.

    ``obs`` holds, one row per observation, shape (P, m), the symbol-rate
    matched-filter outputs at ``design.rows`` of each rail, concatenated in
    the design's rail order. Paths below ``SPUR_THRESHOLD`` of the
    strongest recovered gain are dropped and the survivors refit. Residual
    power from stage one estimates the noise variance at the matched-filter
    output. Returns the gains, shape (P, MAX_DELAY + 1), column d the gain
    at delay d and an exact 0.0 where a path was dropped, and the noise
    variances, shape (P,).

    Each stage is one stacked ``np.matmul`` of (k, 1) columns, one
    matrix-vector product per row, so every row is bitwise what a one-row
    call gives; stage one is bitwise ``design.pinv @ obs[p]``. Stage two
    fits every row with the full solver, then refits it with the solver
    of the subset it keeps; its gains equal a ``np.linalg.lstsq`` over the
    kept cascade columns to rounding.
    """
    rows = np.asarray(obs, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"obs of shape {rows.shape} must be 2-d, "
                         f"one observation per row")
    r_hat = np.matmul(design.pinv, rows[..., None])
    resid = rows - np.matmul(design.design, r_hat)[..., 0]
    dof = rows.shape[1] - LAGS.size
    noise_var = np.empty(rows.shape[0])
    for p, e in enumerate(resid):
        noise_var[p] = float(np.dot(e, e)) / dof
    solvers = design.solvers
    strength = np.abs(np.matmul(solvers[-1], r_hat)[..., 0])
    keep = strength >= SPUR_THRESHOLD * strength.max(axis=1, keepdims=True)
    subset = keep @ (1 << np.arange(keep.shape[1]))
    refit = np.matmul(solvers[subset], r_hat)[..., 0]
    # a dropped delay's zero row can sum to -0.0
    return np.where(keep, refit, 0.0), noise_var


def composite_response(gains, cascade) -> np.ndarray:
    """The composite responses of channels given by their gains at
    whole-symbol delays, shape (R, D), for a pulse whose cascade at lag
    l_i - d is ``cascade[i, d]``, shape (L, D): sum_d gains[r, d]
    cascade[i, d], shape (R, L), accumulated over the paths in delay
    order from zero. A missing path adds exact zeros."""
    out = np.zeros((gains.shape[0], cascade.shape[0]))
    for d in range(gains.shape[1]):
        out = out + gains[:, d:d + 1] * cascade[:, d]
    return out


def threshold_optimal(symbols, response) -> np.ndarray:
    """Genie threshold: the full interference sum over every other symbol,
    past and future, through the channel's paths. ``response`` is the
    channel's ``composite_response`` at lags -DECAY_RADIUS..DECAY_RADIUS +
    its last path's delay, truncated where the pulse autocorrelation
    falls below 1e-9; its lag-0 entry is the symbol's own term."""
    s = np.asarray(symbols, dtype=float)
    return (np.convolve(s, response)[DECAY_RADIUS:DECAY_RADIUS + s.size]
            - s * response[DECAY_RADIUS])


def decision_window(gains):
    """Length of the past-decision feedback window of a channel given by
    its gains at whole-symbol delays 0..D-1 on the last axis: 5 plus the
    delay of its last path, an int for one row (D,) and an int array for
    rows (..., D). A path is present exactly when its gain is nonzero; a
    row without one (every gain zero) counts as reaching delay D - 1."""
    present = np.asarray(gains) != 0.0
    last = present.shape[-1] - 1 - np.argmax(present[..., ::-1], axis=-1)
    return 5 + (int(last) if np.ndim(last) == 0 else last)


def decode_suboptimal(y_syms, train_syms, coeffs, guess) -> np.ndarray:
    """Decision-directed decoding of one frame or of a batch of frames.

    ``y_syms`` holds symbol-rate observations, shape (..., n): one frame
    per row of its leading shape. ``train_syms`` is the known +-1 training
    prefix, shape (..., n_train); ``coeffs`` holds the feedback
    coefficients c_1..c_w, the composite response of a channel at the
    past lags 1..w of its ``decision_window``, shape (..., w), rows with a
    shorter window padded with zeros at the end. Their leading shapes, and
    that of ``guess`` (below), must broadcast to the leading shape of
    ``y_syms``: a (P, 2, n) batch of grid points and rails takes training
    (2, n_train) shared by the points and coefficients (w,) shared by
    every row or (P, 2, w) one per row. The prefix primes the feedback
    window, and every later decision feeds back into the thresholds of the
    symbols after it: symbol n decides +1 when
    ``y[n] >= sum_{k=1..w} c_k d[n-k]`` (a tie goes to +1), and decisions
    before the frame count as zero. Returns the decisions as int8 +-1 in
    the shape of ``y_syms``, training region echoed.

    The causal recursion has exactly one solution, which is found here by
    Jacobi iteration over whole arrays rather than one symbol at a time:
    start from an initial iterate, the signs of ``guess`` (shape (..., n);
    a zero counts as +1; its training part is replaced by the prefix), and
    on each pass recompute the thresholds from the previous pass's
    decisions. A pass decides the first symbol it changes from final
    decisions only, so every symbol up to and including the first change
    is final, whatever the iterate was; a pass that changes nothing has
    reached the solution. Any guess therefore gives the same result, and
    only the number of passes depends on it. The thresholds are
    accumulated over k = 1..w from 0.0 in the recursion's own order, and
    an int8 decision times a float64 coefficient is exact, so they are
    bitwise equal to the recursion's and the decisions are exact, not an
    approximation. Padding terms come last and add +-0.0, which moves no
    comparison, so a padded row decides as its own window does.

    The first pass recomputes every threshold after the training, once per
    row of the broadcast shape of the guess, training and coefficients:
    a batch of grid points that shares them also shares this pass, and
    only the comparison with y runs per point. One comparison over every
    row then finds the (row, symbol) pairs whose decision changed. A
    later pass recomputes only the thresholds of the pairs up to w symbols
    after such a pair in the same row, each from its own gathered window
    and its row's coefficients: any other threshold sees the same window
    as before and repeats its decision, and a change never reaches past
    the end of its row. A pass thus costs at most w thresholds per pair
    the previous pass changed, and only the pairs it changes go on to the
    next. A good guess, one that differs from the solution only around
    its decision errors, leaves few of them. Few passes suffice when the
    own-symbol gain exceeds the summed feedback magnitudes, as on every
    channel preset. The worst case is unchanged: when y carries no signal
    (for example y == 0), each pass finalizes one symbol and decoding
    takes n - n_train passes.
    """
    y = np.asarray(y_syms, dtype=float)
    if y.ndim == 0:
        raise ValueError("observations must be at least 1-d")
    lead, n = y.shape[:-1], y.shape[-1]
    dims = " or ".join(f"{k}-d" for k in range(1, y.ndim + 1))
    args = {"training": train_syms, "coefficient": coeffs, "guess": guess}
    for name, a in args.items():
        a = args[name] = np.asarray(a, dtype=float)
        if not 1 <= a.ndim <= y.ndim:
            raise ValueError(f"{name} array of shape {a.shape} must be {dims} "
                             f"for {y.ndim}-d observations")
        rows = a.shape[:-1]
        if any(r not in (1, m) for r, m in zip(rows[::-1], lead[::-1])):
            raise ValueError(f"{_rows(rows)} {name} rows for {_rows(lead)} "
                             f"observation rows")
    train, c, guess = args.values()
    n_train, w = train.shape[-1], c.shape[-1]
    if n_train > n:
        raise ValueError("training longer than the observed frame")
    if guess.shape[-1] != n:
        raise ValueError(f"guess of shape {guess.shape} for observations of "
                         f"shape {y.shape}")
    if not np.all(np.abs(train) == 1.0):
        raise ValueError("training symbols must be -1 or +1")
    # column w + m of d holds the decision for symbol m; the w zero columns
    # before the frame add nothing to a threshold. Pass 1 reads the iterate
    # at the rows the guess, training and coefficients span
    d = np.zeros(np.broadcast_shapes(guess.shape[:-1], train.shape[:-1],
                                     c.shape[:-1]) + (w + n,), dtype=np.int8)
    d[..., w:] = np.where(guess >= 0.0, _PLUS, _MINUS)
    d[..., w:w + n_train] = train
    theta = 0.0
    for k in range(1, w + 1):
        theta += d[..., w - k + n_train:w - k + n] * c[..., k - 1:k]
    # later passes work on (row, symbol) pairs, keyed row * n + symbol, of
    # the flat iterate; symbol m of row r sits at key + (r + 1) * w in it
    pos = np.flatnonzero((y[..., n_train:] >= theta)
                         != (d[..., w + n_train:] > 0))
    row = pos // (n - n_train)  # no pair, so no division, when n == n_train
    key = pos + (row + 1) * n_train
    at = key + (row + 1) * w
    flat = np.broadcast_to(d, lead + d.shape[-1:]).copy().reshape(-1)
    y = y.reshape(-1)
    c = np.broadcast_to(c, lead + (w,)).reshape(math.prod(lead), w).T
    lags = np.arange(1, w + 1)
    while key.size:
        flat[at] = -flat[at]
        # a change reaches the next w symbols of its own row only
        near = (key[:, None] + lags)[(key % n)[:, None] + lags < n]
        near.sort()  # and drop repeats: np.unique would import numpy.ma
        first = np.ones(near.size, dtype=bool)
        first[1:] = near[1:] != near[:-1]
        key = near[first]
        row = key // n
        at = key + (row + 1) * w
        window = flat[at - lags[:, None]]
        # one product, then the lag rows added in turn from 0.0, in pass 1's
        # order (np.add.reduce would sum a lone pair's 8 lags pairwise)
        theta = sum(window * np.take(c, row, axis=1), 0.0)
        flipped = (y[key] >= theta) != (flat[at] > 0)
        key, at = key[flipped], at[flipped]
    return flat.reshape(lead + (w + n,))[..., w:]


def _rows(shape) -> str:
    return " x ".join(map(str, shape))
