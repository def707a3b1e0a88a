"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from the defining formulas rather
than imported from the package, so tests compare two separately derived
computations. The exceptions are ``waveform_path``, the full-rate
pipeline built from the package's own stages, against which the sampled
frame paths are checked, ``acquire_loop`` and ``mmse_per_span``, the
per-point frame acquisition and the per-span equalizer design the batched
ones must reproduce (with ``frame_sync_stream`` and ``estimate_ls_loop``,
the per-stream sync and per-row ``lstsq`` estimate the first one runs),
``frame_reference``, which composes them into a whole frame, and
``parse_csv``, which reads the package's CSV back into its records.
"""

import math
from dataclasses import dataclass

import numpy as np

from chaosmodem import baseline as bl
from chaosmodem import channel as ch
from chaosmodem import rxchain as rx
from chaosmodem.channel import propagate
from chaosmodem.harness import (_PAD_SYMBOLS, _SYNC_GRID_STEPS, CSV_COLUMNS,
                                BerRecord)
from chaosmodem.theory import DECAY_RADIUS, response_r
from chaosmodem.waveform import HybridTrajectory

LN2 = float(np.log(2.0))
TWO_PI = 2.0 * np.pi


def basis_reference(t, beta=LN2):
    """Reference transmit pulse, straight from its three-branch definition."""
    t = np.asarray(t, dtype=float)
    c = np.cos(TWO_PI * t) - (beta / TWO_PI) * np.sin(TWO_PI * t)
    left = (1.0 - np.exp(-beta)) * np.exp(beta * t) * c
    mid = 1.0 - np.exp(beta * (t - 1.0)) * c
    return np.where(t >= 1.0, 0.0, np.where(t < 0.0, left, mid))


def _rk4_step(x, v, s, h, om2, beta=LN2):
    def f(xx, vv):
        return vv, 2.0 * beta * vv - om2 * (xx - s)

    k1x, k1v = f(x, v)
    k2x, k2v = f(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = f(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = f(x + h * k3x, v + h * k3v)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def hybrid_rk4(x0, xdot0, duration, dt=1e-3, beta=LN2):
    """The guard-latched oscillator integrated by fixed-step RK4: the
    reference for the closed-form ``waveform.simulate_hybrid``.

    The drive sign s holds its value between derivative zero crossings;
    at each crossing (bracketed by the step, refined by bisection to
    1e-9) it relatches to sgn(x). Errors grow by sqrt(2) per half period,
    so against the exact solution this is a different shadowing orbit
    after some 25 periods; compare the two over the first ten or so.
    """
    om2 = TWO_PI ** 2 + beta ** 2
    s = 1.0 if x0 == 0.0 else math.copysign(1.0, x0)
    t, x, v = 0.0, float(x0), float(xdot0)
    times, xs, vs, ss = [t], [x], [v], [s]
    ev_t, ev_x = [], []

    while t < duration - 1e-12:
        h = min(dt, duration - t)
        x1, v1 = _rk4_step(x, v, s, h, om2, beta)
        # a fresh crossing, not sign chatter from the event just handled
        # (genuine events are at least half a period apart)
        if v * v1 < 0.0 and (not ev_t or t - ev_t[-1] > 0.25):
            lo, hi = 0.0, h
            for _ in range(80):
                midh = 0.5 * (lo + hi)
                xm, vm = _rk4_step(x, v, s, midh, om2, beta)
                if v * vm < 0.0:
                    hi = midh
                else:
                    lo = midh
                if hi - lo < 1e-12:
                    break
            if hi - lo > 1e-9:
                raise RuntimeError(f"guard crossing near t={t + lo:.6f} "
                                   f"did not bracket within dt")
            he = 0.5 * (lo + hi)
            t, (x, v) = t + he, _rk4_step(x, v, s, he, om2, beta)
            ev_t.append(t)
            ev_x.append(x)
            if x != 0.0:
                s = math.copysign(1.0, x)
        else:
            t, x, v = t + h, x1, v1
        times.append(t)
        xs.append(x)
        vs.append(v)
        ss.append(s)

    times, ss, ev_t, ev_x = map(np.asarray, (times, ss, ev_t, ev_x))
    sym_mask = np.abs(ev_x) < 1.0
    if np.any(sym_mask):
        anchor = float(ev_t[sym_mask][0])
        probes = anchor + np.arange(int(math.floor(duration - anchor))) + 0.25
        symbols = ss[np.searchsorted(times, probes, side="right") - 1]
    else:
        anchor = math.nan
        symbols = np.full(int(duration), s)
    return HybridTrajectory(times, np.asarray(xs), np.asarray(vs), ss, symbols,
                            anchor, ev_t, ev_x)


def pn_bits(n, seed):
    """``n`` balanced pseudo-noise bits (half/half up to one bit) from
    ``seed``: ``txchain.gen_training``'s pattern at any seed."""
    bits = np.zeros(n, dtype=np.int64)
    bits[: n // 2] = 1
    return np.random.default_rng(seed).permutation(bits)


def rrc_reference(rolloff, span, n_c):
    """Unit-energy root-raised-cosine taps on the grid t = k / n_c,
    |t| <= span / 2, for any rolloff and even span: the generic closed
    form, its singular points at |4 a t| = 1 found by value. The reference
    for ``baseline.rrc_taps``."""
    a = float(rolloff)
    k = np.arange(-(span * n_c) // 2, (span * n_c) // 2 + 1)
    t = k / n_c
    num = np.sin(np.pi * t * (1.0 - a)) + 4.0 * a * t * np.cos(np.pi * t * (1.0 + a))
    den = np.pi * t * (1.0 - (4.0 * a * t) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = num / den
    h[k == 0] = 1.0 - a + 4.0 * a / np.pi
    sing = np.isclose(np.abs(4.0 * a * t), 1.0, rtol=0.0, atol=1e-12) & (k != 0)
    if np.any(sing):
        h[sing] = (a / math.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * a))
            + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * a)))
    return h / math.sqrt(float(np.dot(h, h)))


def rrc_cascade_reference(taps, span, n_c, lags):
    """Cascade of ``taps`` (span * n_c + 1 of them) with their matched
    filter at integer symbol lags, in the shape of ``lags``: sampled at
    lags -reach..reach, reach the largest |lag|, zero where the cascade
    ends, then indexed. The reference for the RRC pulse's cascade table."""
    reach = int(np.max(np.abs(lags)))
    c = np.convolve(taps, taps[::-1])
    idx = span * n_c + np.arange(-reach, reach + 1) * n_c
    out = np.zeros(idx.size)
    ok = (idx >= 0) & (idx < c.size)
    out[ok] = c[idx[ok]]
    return out[lags + reach]


def composite_response(t, gains):
    """The closed-form path sum sum_d alpha_d r(t - d) of a channel with
    gains alpha_d at whole-symbol delays d, accumulated path by path in
    delay order from zero; a float for scalar ``t``. The reference for
    ``rxchain.composite_response``."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape)
    for tau, alpha in enumerate(gains):
        acc = acc + response_r(t, tau, alpha)
    if t.ndim == 0:
        return float(acc)
    return acc


def genie_response(gains):
    """The composite response ``rxchain.threshold_optimal`` sums over, at
    lags -DECAY_RADIUS..DECAY_RADIUS + the last path's delay."""
    lags = np.arange(-DECAY_RADIUS, DECAY_RADIUS + len(gains), dtype=float)
    return composite_response(lags, gains)


def isi_feedback_coeffs(gains, window: int) -> np.ndarray:
    """Composite response at past integer lags 1..window: the decision-
    feedback coefficients, path by path through ``composite_response``."""
    k = np.arange(1, window + 1, dtype=float)
    return composite_response(k, gains)


def brute_response(lags, step=1e-3, beta=LN2, support=40.0):
    """Correlation of the pulse with itself by direct Riemann summation.

    Returns r(lag) for each requested lag (a multiple of ``step``), using a
    dense grid over the pulse support truncated at -``support``.
    """
    lags = np.asarray(lags, dtype=float)
    n = int(round(1.0 / step))
    j = np.arange(int(-support * n), n)
    p = basis_reference(j / n, beta)
    full = np.convolve(p, p[::-1]) * step
    center = p.size - 1
    idx = np.round(lags * n).astype(int)
    if np.max(np.abs(lags * n - idx)) > 1e-6:
        raise ValueError("lags must be multiples of the grid step")
    return full[center + idx]


@dataclass
class ThresholdState:
    """Ring of recent decisions feeding the causal threshold, one symbol at
    a time: the reference the batch decision-feedback decoder must match.

    window[k-1] holds the decision for symbol n-k when the next symbol to
    decode is n. Fresh states start from silence (zeros), matching a frame
    with no symbols before it. ``coeffs[k-1]`` is the composite response
    at past lag k, over the same window length as the decoder.
    """

    window: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def fresh(cls, coeffs) -> "ThresholdState":
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(np.zeros(coeffs.size), coeffs)

    def push(self, symbol: float) -> None:
        self.window[1:] = self.window[:-1]
        self.window[0] = symbol


def decide(y, theta):
    """Threshold decision, +1 or -1 as int8; a tie goes to +1: the rule
    every threshold receiver of the package counts its errors by."""
    return np.where(np.asarray(y, dtype=float) >= np.asarray(theta, dtype=float),
                    np.int8(1), np.int8(-1))


def threshold_suboptimal(state: ThresholdState) -> float:
    """Causal threshold from the windowed past decisions."""
    return float(np.dot(state.window, state.coeffs))


def dd_loop(y, out, coeffs, n_start):
    """The causal decision-feedback recursion, one symbol and one feedback
    tap at a time: the plain-loop reference for the batch decoder.

    Fills ``out[n_start:]`` in place from the decisions before each symbol
    (``out[:n_start]`` holds the training) and returns the thresholds it
    compared against; symbols before the frame are skipped.
    """
    w = coeffs.shape[0]
    thetas = np.zeros(y.shape[0])
    for n in range(n_start, y.shape[0]):
        th = 0.0
        for k in range(1, w + 1):
            m = n - k
            if m >= 0:
                th += out[m] * coeffs[k - 1]
        thetas[n] = th
        out[n] = 1.0 if y[n] >= th else -1.0
    return thetas


def waveform_path(pulse, rail, channel, pad, rng_noise):
    """Full-rate matched-filter outputs of one rail, shaped with the pulse's
    tail, propagated and delayed by ``pad`` samples, and of unit-variance
    noise over the same span: every sample a frame could read, computed
    the long way."""
    shaped = pulse.synth(np.concatenate([rail, pulse.tail]))
    v = propagate(shaped, channel, pulse.n_c)
    sig = np.concatenate([np.zeros(pad), v])
    return pulse.mf(sig), pulse.mf(rng_noise.standard_normal(sig.size))


def frame_sync_stream(filtered, template):
    """The offset of one stream that maximizes its normalized
    cross-correlation with ``template``: one ``np.correlate`` of the formed
    stream and a running sum of its squares for the window energy. The
    per-stream reference for ``rxchain.frame_sync``."""
    x = np.asarray(filtered, dtype=float)
    t = np.asarray(template, dtype=float)
    num = np.correlate(x, t, mode="valid")
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    win_energy = csum[t.size:] - csum[:-t.size]
    den = np.sqrt(win_energy * float(np.dot(t, t)))
    return int(np.argmax(np.abs(num) / np.maximum(den, 1e-30)))


def estimate_ls_loop(obs, design, cascade):
    """``rxchain.estimate_channel_ls`` one row at a time, stage two by
    ``np.linalg.lstsq`` on the cascade and, when a path is dropped, again
    on the kept columns; it reads only the design's ``pinv`` and
    ``design``. Returns the gains (P, D) and noise variances."""
    rows = np.asarray(obs, dtype=float)
    gains = np.zeros((rows.shape[0], cascade.shape[1]))
    noise_var = np.empty(rows.shape[0])
    dof = rows.shape[1] - rx.LAGS.size
    for p, row in enumerate(rows):
        r = design.pinv @ row
        e = row - design.design @ r
        noise_var[p] = float(np.dot(e, e)) / max(dof, 1)
        alpha = np.linalg.lstsq(cascade, r, rcond=None)[0]
        keep = np.abs(alpha) >= rx.SPUR_THRESHOLD * np.max(np.abs(alpha))
        if not np.all(keep):
            alpha = np.linalg.lstsq(cascade[:, keep], r, rcond=None)[0]
        gains[p, keep] = alpha
    return gains, noise_var


def sync_window_long(ctx, sent, spec, pad, w):
    """Full-rate matched-filter outputs (signal, noise) of both rails of a
    frame over the sync window, each rail shaped, propagated and filtered
    whole, and its noise draw filtered whole."""
    win = ctx.search_len + 2 * ctx.config.n_c
    pulse = ctx.pulse
    sig = [pulse.mf(np.concatenate([np.zeros(pad), propagate(pulse.synth(
        np.concatenate([rail, pulse.tail])), spec, pulse.n_c)]))[:win]
        for rail in sent]
    return np.array(sig), np.array([pulse.mf(row)[:win] for row in w])


def _sync_offset(ctx, proj, y_i, y_q):
    """Coarse correlation peak of one grid point, snapped to the symbol
    grid and refined by the pooled path-model residual against the
    projection ``proj``; returns (offset, obs) or None. Among candidates
    whose residual is within a factor two of the best, the largest offset
    wins; the winner must explain at least half the training energy."""
    n_c = ctx.config.n_c
    sl = slice(0, min(ctx.search_len, y_i.size))
    coarse = frame_sync_stream(y_i[sl], ctx.template)
    base = int(round(coarse / n_c)) * n_c
    rows, span = ctx.design.rows, ctx.train.shape[1] * n_c
    results = {}
    for step in _SYNC_GRID_STEPS:
        o = base + step * n_c
        if o < 0 or o + span > y_i.size:
            continue
        obs = np.concatenate([y_i[o:o + span:n_c][rows],
                              y_q[o:o + span:n_c][rows]])
        resid = obs - proj @ obs
        results[o] = (float(np.dot(resid, resid)), obs)
    if not results:
        return None
    best = min(v[0] for v in results.values())
    good = [o for o, v in results.items() if v[0] <= 2.0 * best + 1e-12]
    o = max(good)
    res, obs = results[o]
    if res > 0.5 * float(np.dot(obs, obs)):
        return None
    return o, obs


def mmse_per_span(gains, noise_var, length=bl.EQ_LENGTH, delay=bl.EQ_DELAY):
    """``baseline.design_mmse`` one channel span at a time: each row is
    trimmed to its span (the index of its last nonzero gain plus 1; all D
    delays for a row without one), and the rows that share a span are
    designed as one stack of their own (length + span - 1) x length
    convolution matrices. Returns the taps, shape (P, length)."""
    sigma2 = np.asarray(noise_var, dtype=float)
    gains = np.broadcast_to(np.asarray(gains, dtype=float),
                            (sigma2.size, np.shape(gains)[1]))
    spans = gains.shape[1] - np.argmax(gains[:, ::-1] != 0.0, axis=1)
    taps = np.zeros((sigma2.size, length))
    for span in sorted(set(spans.tolist())):
        group = np.flatnonzero(spans == span)
        n_out = length + span - 1
        j = np.arange(length)[:, None]
        H = np.zeros((group.size, n_out, length))
        H[:, j + np.arange(span), j] = gains[group, None, :span]
        e_d = np.zeros(n_out)
        e_d[delay] = 1.0
        Ht = H.transpose(0, 2, 1)
        taps[group] = np.linalg.solve(
            Ht @ H + sigma2[group, None, None] * np.eye(length),
            (Ht @ e_d)[..., None])[..., 0]
    return taps


def frame_reference(ctx, frame_idx):
    """One frame of a sweep computed the long way, for ``ctx`` a
    ``harness._Context``: per grid point (payload errors, counted payload
    bits, failures, estimate RMS), which the sweep sums.

    The frame's three streams come from ``SeedSequence([master_seed,
    frame_idx]).spawn(3)``: the payload bits, mapped by the QPSK table
    after the training rails; on an estimated channel the path draw and
    the whole-symbol pad; the noise, one draw per rail in rail order. Each
    rail goes through ``waveform_path`` at full rate and is sampled at the
    symbols from the true offset on. An estimated-channel frame acquires
    by ``acquire_loop``; a known-channel frame decodes every point with
    the receiver of its preset: ``isi_feedback_coeffs`` over the decision
    window, ``mmse_per_span`` at the point's noise variance, or the genie
    thresholds. Decisions come from ``dd_loop`` one rail at a time, a
    threshold (a tie goes to +1), or one ``np.convolve`` per point and
    rail ahead of the zero threshold. A point that fails counts every
    payload bit in error under the pessimistic policy, and no bit under
    the separate one."""
    cfg = ctx.config
    pulse, n_c, n_bits = ctx.pulse, cfg.n_c, cfg.n_data_bits
    content, chan, noise = np.random.SeedSequence(
        [cfg.master_seed, frame_idx]).spawn(3)
    b = np.random.default_rng(content).integers(0, 2, n_bits)
    b1, b2 = b[0::2], b[1::2]
    payload = np.stack([1.0 - 2.0 * (b1 ^ b2), 1.0 - 2.0 * b1])
    sent = np.concatenate([ctx.train, payload], axis=1)
    n_train, n = ctx.train.shape[1], sent.shape[1]
    spec, pad = ctx.channel, 0
    if ctx.quasi:
        rng = np.random.default_rng(chan)
        gamma = ch.draw_gamma(ctx.channel, rng)
        pad = int(rng.integers(_PAD_SYMBOLS[0], _PAD_SYMBOLS[1] + 1)) * n_c
        spec = ch.gains_from_gamma(gamma, ctx.channel.n_paths)
    size = pad + propagate(pulse.synth(np.concatenate([sent[0], pulse.tail])),
                           spec, n_c).size
    rng = np.random.default_rng(noise)
    w = np.stack([rng.standard_normal(size) for _ in sent])
    rng = np.random.default_rng(noise)
    full = [waveform_path(pulse, rail, spec, pad, rng) for rail in sent]
    at = slice(pad + pulse.lead, pad + pulse.lead + n * n_c, n_c)
    sig = np.array([s[at] for s, _ in full])
    nz = np.array([z[at] for _, z in full])

    method, n_points = cfg.method, ctx.sigmas.size
    if ctx.quasi:
        decoded, feedback, eqs, failures, rms = acquire_loop(ctx, sent, spec,
                                                             pad, w)
    else:
        decoded = list(range(n_points))
        failures = np.zeros(n_points, dtype=np.int64)
        rms = np.full(n_points, np.nan)
        gains = dense_gains(spec)
        feedback = [isi_feedback_coeffs(spec, rx.decision_window(gains))[None]
                    ] * n_points
        eqs = mmse_per_span(gains[None], ctx.sigmas * ctx.sigmas)
    lost = n_bits if cfg.failure_policy == "pessimistic" else 0
    errors = np.where(failures == 1, lost, 0).astype(np.int64)
    counted = errors.copy()
    for j, p in enumerate(decoded):
        counted[p] = n_bits
        for r, rail in enumerate(sent):
            y = sig[r] + ctx.sigmas[p] * nz[r]
            theta = np.zeros(n)
            if method == "chaotic-subopt":
                dec = np.empty(n)
                dec[:n_train] = rail[:n_train]
                dd_loop(y, dec, feedback[j][0], n_train)
            else:
                if method == "chaotic-opt":
                    theta = rx.threshold_optimal(
                        np.concatenate([rail, pulse.tail]),
                        genie_response(spec))[:n]
                elif method == "rrc-mmse":
                    y = np.convolve(y, eqs[j])[bl.EQ_DELAY:bl.EQ_DELAY + n]
                dec = decide(y, theta)
            errors[p] += int(np.count_nonzero(dec[n_train:] != rail[n_train:]))
    return errors, counted, failures, rms


def parse_csv(path):
    """The records of a CSV written by ``harness.emit_csv``; each row goes
    through ``BerRecord``'s own consistency checks."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path} does not start with the expected header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        records.append(BerRecord(parts[0], parts[1], float(parts[2]),
                                 int(parts[3]), int(parts[4]),
                                 float(parts[5]), float(parts[6])))
    return records


def dense_gains(gains) -> np.ndarray:
    """A channel's gains at whole-symbol delays 0..rxchain.MAX_DELAY, zero
    past its last path."""
    dense = np.zeros(rx.MAX_DELAY + 1)
    dense[:len(gains)] = gains
    return dense


def acquire_loop(ctx, sent, spec, pad, w):
    """``harness._acquire`` one grid point at a time, the long way: both
    rails over the full-rate sync window, then per point the formed
    stream's sync, the LS estimate by ``lstsq`` and the receiver design,
    with the residual projection built from the pseudoinverse of the path
    model (the pulse's cascade at ``rxchain.LAGS``, not the design's
    solvers or basis), and the feedback coefficients path by path over
    the estimate's gains. Returns what ``_acquire`` does: (decoded
    points, feedback rows (points, 1, w) or None, equalizer taps (points,
    EQ_LENGTH) or None, failures, estimate RMS)."""
    win_sig, win_noise = sync_window_long(ctx, sent, spec, pad, w)
    cascade = ctx.pulse.cascade(rx.LAGS)
    B = ctx.design.design @ cascade
    proj = B @ np.linalg.pinv(B)
    n_points = ctx.sigmas.size
    failures = np.zeros(n_points, dtype=np.int64)
    rms = np.full(n_points, np.nan)
    true_dense = dense_gains(spec)
    decoded, feedback, eqs = [], [], []
    for p, sigma in enumerate(ctx.sigmas):
        y_i, y_q = win_sig + sigma * win_noise
        picked = _sync_offset(ctx, proj, y_i, y_q)
        if picked is None or picked[0] != pad + ctx.pulse.lead:
            failures[p] = 1
            continue
        gains, noise_var = estimate_ls_loop(picked[1][None], ctx.design,
                                            cascade)
        rms[p] = float(np.sqrt(np.mean((gains[0] - true_dense) ** 2)))
        decoded.append(p)
        if ctx.config.method == "rrc-mmse":
            eqs.append(bl.design_mmse(gains, noise_var)[0])
        else:
            feedback.append(isi_feedback_coeffs(
                gains[0], rx.decision_window(gains[0])))
    if ctx.config.method == "rrc-mmse":
        return (decoded, None, np.array(eqs).reshape(-1, bl.EQ_LENGTH),
                failures, rms)
    rows = np.zeros((len(feedback), 1, max((c.size for c in feedback),
                                           default=0)))
    for row, c in zip(rows, feedback):
        row[0, :c.size] = c
    return decoded, rows, None, failures, rms


# erfc on a spread of arguments, 20 significant digits (arbitrary-precision
# series evaluation, frozen).
ERFC_TABLE = {
    0.0: 1.0,
    1e-08: 0.99999998871620832904,
    0.1: 0.8875370839817151078,
    0.5: 0.47950012218695346232,
    1.0: 0.15729920705028513066,
    1.5: 0.033894853524689272933,
    1.9999: 0.0046798020929706085356,
    2.0: 0.0046777349810472658379,
    2.0001: 0.0046756686958033441929,
    2.5: 0.00040695201744495893956,
    3.0: 0.000022090496998585441373,
    5.0: 1.5374597944280348502e-12,
    7.5: 2.7766493860305691007e-26,
    10.0: 2.088487583762544757e-45,
    15.0: 7.2129941724512066666e-100,
    20.0: 5.3958656116079009289e-176,
    26.0: 5.6631924088561428465e-296,
    -0.5: 1.5204998778130465377,
    -1.0: 1.8427007929497148693,
    -3.0: 1.9999779095030014146,
    -10.0: 2.0,
    -26.0: 2.0,
}

# Matched-filter cascade r at reference lags, 25 significant digits
# (high-precision adaptive quadrature of the defining integral, frozen).
RESPONSE_TABLE = {
    0.0: 1.343327244421493302620983,
    0.125: 1.236081535646286772614563,
    0.25: 0.9679858981544837059420717,
    0.5: 0.3786154886517354080322124,
    0.75: 0.04647796737088159482435329,
    1.0: -0.08583181110537332565524571,
    2.0: -0.04291590555268666282762286,
}

# Decision-feedback BER formula evaluated by high-precision quadrature of
# the uniform residual-ISI average (frozen; channels are the standard
# 2-path and 3-path exponential presets with gamma = 0.6).
BER_SUB_TABLE = {
    ("static2", 6.0): 0.004219113536,
    ("static2", 8.0): 0.0005509375357,
    ("static3", 6.0): 0.004691241348,
    ("static3", 8.0): 0.0006564639091,
}

# Signal coefficient and residual-ISI constant for the same presets.
PRESET_P_K = {
    "static2": (1.29622174774, -0.218769118892),
    "static3": (1.28329572539, -0.231695141244),
}
