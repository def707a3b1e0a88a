"""RRC shaping/matched filtering and linear MMSE equalization."""

import math

import numpy as np
import pytest

from chaosmodem import baseline as bl
from chaosmodem import harness as H
from chaosmodem import rxchain as rx
from oracles import (mmse_per_span, pn_bits, rrc_cascade_reference,
                     rrc_reference)


def _rrc_raw(t, a):
    """Textbook root-raised-cosine value away from its singular points."""
    num = math.sin(math.pi * t * (1 - a)) + 4 * a * t * math.cos(math.pi * t * (1 + a))
    return num / (math.pi * t * (1 - (4 * a * t) ** 2))


def test_taps_shape_energy_symmetry():
    n_c = 8
    taps = bl.rrc_taps(n_c)
    assert taps.shape == (bl.SPAN * n_c + 1,) == (129,)
    assert abs(float(np.dot(taps, taps)) - 1.0) < 1e-6
    assert np.array_equal(taps, taps[::-1])
    center = bl.SPAN * n_c // 2
    assert np.argmax(taps) == center
    # the center dominates strictly
    rest = np.delete(taps, center)
    assert taps[center] > np.max(np.abs(rest))
    # one shared, read-only array per n_c
    assert bl.rrc_taps(n_c) is taps and not taps.flags.writeable


def test_taps_validation():
    for n_c in (0, 1, 8.0, True):
        with pytest.raises(ValueError, match="n_c must be an integer >= 2"):
            bl.rrc_taps(n_c)


def test_taps_and_cascade_match_reference():
    # bitwise the generic formula at (ROLLOFF, SPAN), which finds its
    # singular points by value, and the cascade bitwise its sampling at
    # -reach..reach indexed by lag, over the lag tables the harness builds
    # (feedback lags 1..8 and LS lags -6..9, each minus path delays 0..3)
    # and over every lag to 2 past each end of the cascade
    delays = np.arange(rx.MAX_DELAY + 1)
    width = rx.decision_window(np.ones(rx.MAX_DELAY + 1))
    tables = (np.arange(1, width + 1)[:, None] - delays,
              rx.LAGS[:, None] - delays, np.arange(-bl.SPAN - 2, bl.SPAN + 3))
    for n_c in range(3, 17):
        want = rrc_reference(bl.ROLLOFF, bl.SPAN, n_c)
        assert bl.rrc_taps(n_c).tobytes() == want.tobytes()
        for table in tables:
            got = bl.symbol_cascade(n_c, table)
            ref = rrc_cascade_reference(want, bl.SPAN, n_c, table)
            assert got.shape == table.shape
            assert got.tobytes() == ref.tobytes()


def test_singular_point_fills():
    # normalization cancels in tap ratios, so the filled-in values can be
    # checked against the raw formula evaluated just off the poles
    a, n_c = bl.ROLLOFF, 8
    taps = bl.rrc_taps(n_c)
    t_sing = 1.0
    assert abs(4 * a * t_sing - 1.0) < 1e-12
    near = 0.5 * (_rrc_raw(t_sing - 1e-6, a) + _rrc_raw(t_sing + 1e-6, a))
    h0 = 1 - a + 4 * a / math.pi
    center = bl.SPAN * n_c // 2
    for k in (n_c, -n_c):
        got = taps[center + k] / taps[center]
        assert abs(got - near / h0) < 1e-9


def test_cascade_nyquist():
    c = bl.symbol_cascade(8, np.arange(-16, 17))
    peak = c[16]
    assert abs(peak - 1.0) < 1e-9
    off = np.abs(np.delete(c, 16))
    assert np.max(off) < 1e-3 * peak
    # the cascade ends at SPAN symbols
    assert np.all(bl.symbol_cascade(8, np.array([-40, -17, 17, 40])) == 0.0)
    # at n_c = 2 the truncation leaves more than the tolerance, and the
    # rejection says how much; a config names the n_c it came from
    with pytest.raises(ValueError, match=r"leaves \S+ relative ISI .* limit 0.001"):
        bl.rrc_taps(2)
    with pytest.raises(ValueError, match=r"n_c = 2 does not suit rrc-mmse: "
                                         r"the truncated RRC cascade"):
        H.ExperimentConfig(method="rrc-mmse", channel="static2",
                           ebn0_grid=(5.0,), n_c=2)


def test_shape_length_and_peaks():
    n_c = 8
    s = np.zeros(12)
    s[3] = 1.0
    x = bl.rrc_shape(s, n_c)
    assert x.size == (12 + 16) * n_c
    assert np.argmax(x) == (3 + 8) * n_c
    y = bl.rrc_matched_filter(x, n_c)
    peak_at = (3 + 16) * n_c
    assert np.argmax(y) == peak_at
    assert abs(y[peak_at] - 1.0) < 1e-9
    # linearity of the whole shaping stage
    rng = np.random.default_rng(11)
    a = rng.choice([-1.0, 1.0], 40)
    b = rng.choice([-1.0, 1.0], 40)
    xa = bl.rrc_shape(a, n_c)
    xb = bl.rrc_shape(b, n_c)
    xab = bl.rrc_shape(a + b, n_c)
    assert np.max(np.abs(xab - xa - xb)) < 1e-12


def test_shape_filter_mismatch():
    with pytest.raises(ValueError):
        bl.rrc_shape(np.ones((2, 2)), 8)
    with pytest.raises(ValueError):
        bl.rrc_shape(np.ones(0), 8)


def _rrc_estimate(y, train, pulse):
    """Gains (4,) and noise variance of one LS estimate."""
    design = rx.build_ls_design(
        train, pulse.cascade(rx.LAGS[:, None] - np.arange(4)[None, :]))
    gains, noise_var = rx.estimate_channel_ls(y[design.rows][None], design)
    return gains[0], noise_var[0]


def test_sync_template_alignment():
    n_c = 8
    train = 1.0 - 2.0 * pn_bits(64, 3)
    tpl = H.pulse_for("rrc", n_c).template(train)
    assert tpl.size == train.size * n_c
    y = bl.rrc_matched_filter(bl.rrc_shape(train, n_c), n_c)
    assert tpl[0] == y[16 * n_c]
    # symbol m of the template sits at m * n_c and carries its sign
    picks = tpl[np.arange(train.size) * n_c]
    assert np.all(np.sign(picks) == train)


def test_estimate_channel_noiseless():
    n_c = 8
    rng = np.random.default_rng(21)
    train = 1.0 - 2.0 * pn_bits(128, 5)
    syms = np.concatenate([train, rng.choice([-1.0, 1.0], 256)])
    x = bl.rrc_shape(syms, n_c)
    chan = x.copy()
    chan[n_c:] += 0.6 * x[:-n_c]
    y = bl.rrc_matched_filter(chan, n_c)[16 * n_c::n_c][:syms.size]
    gains, noise_var = _rrc_estimate(y, train, H.pulse_for("rrc", n_c))
    assert np.flatnonzero(gains).tolist() == [0, 1]
    # accuracy is limited only by the cascade truncation floor
    assert np.max(np.abs(gains[:2] - [1.0, 0.6])) < 2e-3
    assert noise_var < 1e-4


def test_estimate_channel_drops_spurs(monkeypatch):
    n_c = 8
    train = 1.0 - 2.0 * pn_bits(128, 5)
    x = bl.rrc_shape(train, n_c)
    y = bl.rrc_matched_filter(x, n_c)[16 * n_c::n_c][:train.size]
    pulse = H.pulse_for("rrc", n_c)
    gains, _ = _rrc_estimate(y, train, pulse)
    # a dropped path's gain is an exact zero
    assert np.flatnonzero(gains).tolist() == [0]
    assert abs(gains[0] - 1.0) < 2e-3
    # with the threshold off the small lags stay, but stay small
    monkeypatch.setattr(rx, "SPUR_THRESHOLD", 0.0)
    gains_all, _ = _rrc_estimate(y, train, pulse)
    assert np.flatnonzero(gains_all).tolist() == [0, 1, 2, 3]
    assert np.max(np.abs(gains_all[1:])) < 5e-3


def _design_one(gains, noise_var=0.0):
    """The equalizer taps of one channel row."""
    return bl.design_mmse(np.array([gains], dtype=float),
                          np.array([noise_var]))[0]


def test_mmse_single_path_identity():
    eq = _design_one([1.0])
    assert eq.shape == (bl.EQ_LENGTH,) == (15,) and bl.EQ_DELAY == 7
    ideal = np.zeros(15)
    ideal[7] = 1.0
    assert np.max(np.abs(eq - ideal)) < 1e-12
    rng = np.random.default_rng(4)
    s = rng.choice([-1.0, 1.0], 200)
    out = bl.apply_equalizer(s[None, None], eq[None])[0, 0]
    assert np.max(np.abs(out - s)) < 1e-12


def test_mmse_two_path_residual_isi():
    eq = _design_one([1.0, 0.6])
    rng = np.random.default_rng(7)
    s = rng.choice([-1.0, 1.0], 20000)
    y = np.convolve(s, [1.0, 0.6])[: s.size]
    out = bl.apply_equalizer(y[None, None], eq[None])[0, 0]
    err = out[100:-100] - s[100:-100]
    isi_power = float(np.mean(err**2))
    assert isi_power < 0.01
    # the equalized cascade's squared deviation from a pure delay is that
    # same power for unit-variance symbols
    dev = np.convolve([1.0, 0.6], eq)
    dev[bl.EQ_DELAY] -= 1.0
    assert abs(isi_power - float(np.sum(dev ** 2))) < 5e-4


def test_apply_equalizer_matches_convolve():
    # each point's taps run over both rails of that point, in every frame
    # of a leading batch, as a per-rail full convolution cut at the
    # decision delay gives, edges included; rails shorter than the taps too
    rng = np.random.default_rng(31)
    for shape in ((3, 2, 40), (4, 5, 2, 257), (1, 2, 3), (2, 1, 1)):
        y = rng.normal(size=shape)
        taps = bl.design_mmse(rng.normal(size=(shape[-3], 3)),
                              rng.uniform(0.01, 1.0, shape[-3]))
        got = bl.apply_equalizer(y, taps)
        assert got.shape == y.shape
        n = shape[-1]
        for idx in np.ndindex(shape[:-1]):
            want = np.convolve(y[idx], taps[idx[-2]])[bl.EQ_DELAY:bl.EQ_DELAY + n]
            assert np.max(np.abs(got[idx] - want)) <= 1e-15 * max(
                1.0, np.max(np.abs(want)))


def test_mmse_is_a_minimum():
    # at the solution, nudging any tap either way cannot help on a long
    # noiseless held-out block
    eq = _design_one([1.0, 0.6])
    rng = np.random.default_rng(13)
    s = rng.choice([-1.0, 1.0], 60000)
    y = np.convolve(s, [1.0, 0.6])[: s.size]

    def mse(w):
        out = np.convolve(y, w)[bl.EQ_DELAY:bl.EQ_DELAY + y.size]
        e = out[200:-200] - s[200:-200]
        return float(np.mean(e**2))

    base = mse(eq)
    for k in range(bl.EQ_LENGTH):
        for sign in (1.0, -1.0):
            w = eq.copy()
            w[k] += sign * 1e-3
            assert mse(w) >= base


def test_mmse_regularization_shrinks_taps():
    norms = [float(np.linalg.norm(_design_one([1.0, 0.6], v)))
             for v in (0.1, 10.0, 1e6)]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-4


def test_mmse_batch_matches_single():
    # a batch of gains rows mixing channel spans 1-4 gives, in row order,
    # each row's own equalizer bitwise, and that is the closed form
    # solve(H^T H + sigma^2 I, H^T e_d) on the 2-d convolution matrix
    rng = np.random.default_rng(17)
    rows = []
    for _ in range(6):
        for delays in ((0,), (0, 1), (1,), (0, 2), (0, 1, 2), (0, 3),
                       (0, 1, 2, 3), (2, 3)):
            g = np.zeros(4)
            g[list(delays)] = rng.uniform(-1.0, 1.0, len(delays)) + 1.2 * (
                np.arange(len(delays)) == 0)
            rows.append(g)
    gains = rng.permutation(np.array(rows))
    noise_var = rng.uniform(0.0, 0.5, len(gains))
    batch = bl.design_mmse(gains, noise_var)
    assert batch.shape == (len(gains), bl.EQ_LENGTH)
    for g, v, got in zip(gains, noise_var, batch):
        want = _design_one(g, v)
        assert got.tobytes() == want.tobytes()
        h = g[:np.flatnonzero(g)[-1] + 1]
        H = np.zeros((bl.EQ_LENGTH + h.size - 1, bl.EQ_LENGTH))
        for j in range(bl.EQ_LENGTH):
            H[j:j + h.size, j] = h
        e_d = np.zeros(H.shape[0])
        e_d[bl.EQ_DELAY] = 1.0
        ref = np.linalg.solve(H.T @ H + v * np.eye(bl.EQ_LENGTH), H.T @ e_d)
        assert want.tobytes() == ref.tobytes()
        # trailing zero gains design the trimmed row's equalizer
        assert _design_one(h, v).tobytes() == want.tobytes()
    # one (1, D) row shared by P noise variances is P one-row designs
    shared = bl.design_mmse(gains[:1], noise_var)
    assert shared.shape == batch.shape
    for v, got in zip(noise_var, shared):
        assert got.tobytes() == _design_one(gains[0], v).tobytes()
    assert bl.design_mmse(np.zeros((0, 4)), np.zeros(0)).shape == (0, 15)


def test_mmse_stacked_matches_per_span():
    # one stacked solve at span D is bitwise the per-span design, over
    # 1,200 random rows with trailing and interior zero gains (some all
    # zero), zero-forcing rows, and a (1, D) row shared by every variance
    rng = np.random.default_rng(29)
    for D in (1, 2, 4, 6):
        gains = rng.normal(size=(300, D)) * (rng.random((300, D)) < 0.6)
        gains[0, 0] = 1.0  # the shared row meets zero variances too
        noise_var = rng.uniform(0.0, 1.0, 300)
        # zero forcing needs a path
        noise_var[(rng.random(300) < 0.1) & gains.any(axis=1)] = 0.0
        for g in (gains, gains[:1]):
            got = bl.design_mmse(g, noise_var)
            assert got.tobytes() == mmse_per_span(g, noise_var).tobytes()


def test_mmse_errors():
    with pytest.raises(np.linalg.LinAlgError):
        _design_one([0.0])
    # regularization rescues the same channel
    eq = _design_one([0.0], 1.0)
    assert np.all(eq == 0.0)
    with pytest.raises(ValueError):
        _design_one([1.0], -1.0)
    # a batch fails as its worst row does
    with pytest.raises(np.linalg.LinAlgError):
        bl.design_mmse(np.array([[1.0], [0.0]]), np.zeros(2))
    # gains are (P, D) or (1, D) against noise variances (P,)
    with pytest.raises(ValueError):
        bl.design_mmse(np.array([1.0, 0.6]), np.zeros(1))
    with pytest.raises(ValueError):
        bl.design_mmse(np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        bl.design_mmse(np.ones((1, 2)), np.zeros((2, 1)))
