"""RRC shaping/matched filtering and linear MMSE equalization."""

import math

import numpy as np
import pytest

from chaosmodem import baseline as bl
from chaosmodem import harness as H
from chaosmodem import rxchain as rx
from chaosmodem import txchain as tx


def _rrc_raw(t, a):
    """Textbook root-raised-cosine value away from its singular points."""
    num = math.sin(math.pi * t * (1 - a)) + 4 * a * t * math.cos(math.pi * t * (1 + a))
    return num / (math.pi * t * (1 - (4 * a * t) ** 2))


def test_taps_shape_energy_symmetry():
    f = bl.rrc_taps(0.25, 16, 8)
    assert f.taps.shape == (16 * 8 + 1,)
    assert abs(float(np.dot(f.taps, f.taps)) - 1.0) < 1e-6
    assert np.array_equal(f.taps, f.taps[::-1])
    assert np.argmax(f.taps) == f.center
    # the center dominates strictly
    rest = np.delete(f.taps, f.center)
    assert f.taps[f.center] > np.max(np.abs(rest))


def test_taps_validation():
    with pytest.raises(ValueError):
        bl.rrc_taps(0.0, 16, 8)
    with pytest.raises(ValueError):
        bl.rrc_taps(1.2, 16, 8)
    with pytest.raises(ValueError):
        bl.rrc_taps(0.25, 15, 8)
    with pytest.raises(ValueError):
        bl.rrc_taps(0.25, 4, 8)
    with pytest.raises(ValueError, match="n_c must be an integer >= 2"):
        bl.rrc_taps(0.25, 16, 0)
    # rolloff 1 is a legal boundary
    f = bl.rrc_taps(1.0, 16, 8)
    assert abs(float(np.dot(f.taps, f.taps)) - 1.0) < 1e-6


def test_singular_point_fills():
    # normalization cancels in tap ratios, so the filled-in values can be
    # checked against the raw formula evaluated just off the poles
    for a, n_c, k_sing in ((0.25, 8, 8), (0.5, 8, 4)):
        f = bl.rrc_taps(a, 16, n_c)
        t_sing = k_sing / n_c
        assert abs(4 * a * t_sing - 1.0) < 1e-12
        near = 0.5 * (_rrc_raw(t_sing - 1e-6, a) + _rrc_raw(t_sing + 1e-6, a))
        h0 = 1 - a + 4 * a / math.pi
        got = f.taps[f.center + k_sing] / f.taps[f.center]
        assert abs(got - near / h0) < 1e-9


def test_cascade_nyquist():
    f = bl.rrc_taps(0.25, 16, 8)
    c = f.symbol_cascade(16)
    peak = c[16]
    assert abs(peak - 1.0) < 1e-9
    off = np.abs(np.delete(c, 16))
    assert np.max(off) < 1e-3 * peak
    # a span-8 truncation leaves a few-1e-3 cascade floor at this rolloff
    # and is rejected by the filter type
    with pytest.raises(ValueError):
        bl.rrc_taps(0.25, 8, 8)


def test_shape_length_and_peaks():
    n_c = 8
    f = bl.rrc_taps(0.25, 16, n_c)
    s = np.zeros(12)
    s[3] = 1.0
    x = bl.rrc_shape(s, f)
    assert x.size == (12 + 16) * n_c
    assert np.argmax(x) == (3 + 8) * n_c
    y = bl.rrc_matched_filter(x, f)
    peak_at = (3 + 16) * n_c
    assert np.argmax(y) == peak_at
    assert abs(y[peak_at] - 1.0) < 1e-9
    # linearity of the whole shaping stage
    rng = np.random.default_rng(11)
    a = rng.choice([-1.0, 1.0], 40)
    b = rng.choice([-1.0, 1.0], 40)
    xa = bl.rrc_shape(a, f)
    xb = bl.rrc_shape(b, f)
    xab = bl.rrc_shape(a + b, f)
    assert np.max(np.abs(xab - xa - xb)) < 1e-12


def test_shape_filter_mismatch():
    f = bl.rrc_taps(0.25, 16, 8)
    with pytest.raises(ValueError):
        bl.rrc_shape(np.ones((2, 2)), f)
    with pytest.raises(ValueError):
        bl.rrc_shape(np.ones(0), f)


def _rrc_estimate(y, train, pulse, spur_threshold=0.05):
    design = rx.build_ls_design(train, max_delay=3)
    cascade = pulse.cascade(design.lags[:, None] - np.arange(4)[None, :])
    return rx.estimate_channel_ls(y[design.rows], design, cascade,
                                  spur_threshold=spur_threshold)


def test_sync_template_alignment():
    n_c = 8
    f = bl.rrc_taps(0.25, 16, n_c)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(64, 64), seed=3)
    tpl = H.pulse_for("rrc", n_c).template(train)
    assert tpl.size == train.size * n_c
    y = bl.rrc_matched_filter(bl.rrc_shape(train, f), f)
    assert tpl[0] == y[16 * n_c]
    # symbol m of the template sits at m * n_c and carries its sign
    picks = tpl[np.arange(train.size) * n_c]
    assert np.all(np.sign(picks) == train)


def test_estimate_channel_noiseless():
    n_c = 8
    f = bl.rrc_taps(0.25, 16, n_c)
    rng = np.random.default_rng(21)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(128, 256), seed=5)
    syms = np.concatenate([train, rng.choice([-1.0, 1.0], 256)])
    x = bl.rrc_shape(syms, f)
    chan = x.copy()
    chan[n_c:] += 0.6 * x[:-n_c]
    y = rx.sample_symbols(bl.rrc_matched_filter(chan, f), 16 * n_c, n_c, syms.size)
    est = _rrc_estimate(y, train, H.pulse_for("rrc", n_c))
    assert est.delays == (0.0, 1.0)
    # accuracy is limited only by the cascade truncation floor
    assert np.max(np.abs(est.gains - [1.0, 0.6])) < 2e-3
    assert est.noise_var < 1e-4


def test_estimate_channel_drops_spurs():
    n_c = 8
    f = bl.rrc_taps(0.25, 16, n_c)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(128, 128), seed=5)
    x = bl.rrc_shape(train, f)
    y = rx.sample_symbols(bl.rrc_matched_filter(x, f), 16 * n_c, n_c, train.size)
    pulse = H.pulse_for("rrc", n_c)
    est = _rrc_estimate(y, train, pulse)
    assert est.delays == (0.0,)
    assert abs(est.gains[0] - 1.0) < 2e-3
    # with the threshold off the small lags stay, but stay small
    est_all = _rrc_estimate(y, train, pulse, spur_threshold=0.0)
    assert est_all.delays == (0.0, 1.0, 2.0, 3.0)
    assert np.max(np.abs(est_all.gains[1:])) < 5e-3


def test_mmse_single_path_identity():
    est = rx.ChannelEstimate((0.0,), np.array([1.0]), 0.0)
    eq = bl.design_mmse(est)
    assert eq.length == 15 and eq.delay == 7
    ideal = np.zeros(15)
    ideal[7] = 1.0
    assert np.max(np.abs(eq.taps - ideal)) < 1e-12
    assert eq.residual < 1e-24
    rng = np.random.default_rng(4)
    s = rng.choice([-1.0, 1.0], 200)
    out = bl.apply_equalizer(s, eq)
    assert np.max(np.abs(out - s)) < 1e-12


def test_mmse_two_path_residual_isi():
    est = rx.ChannelEstimate((0.0, 1.0), np.array([1.0, 0.6]), 0.0)
    eq = bl.design_mmse(est)
    rng = np.random.default_rng(7)
    s = rng.choice([-1.0, 1.0], 20000)
    y = np.convolve(s, [1.0, 0.6])[: s.size]
    out = bl.apply_equalizer(y, eq)
    err = out[100:-100] - s[100:-100]
    isi_power = float(np.mean(err**2))
    assert isi_power < 0.01
    # the designed residual is that same power for unit-variance symbols
    assert abs(isi_power - eq.residual) < 5e-4


def test_mmse_is_a_minimum():
    # at the solution, nudging any tap either way cannot help on a long
    # noiseless held-out block
    est = rx.ChannelEstimate((0.0, 1.0), np.array([1.0, 0.6]), 0.0)
    eq = bl.design_mmse(est)
    rng = np.random.default_rng(13)
    s = rng.choice([-1.0, 1.0], 60000)
    y = np.convolve(s, [1.0, 0.6])[: s.size]

    def mse(w):
        out = np.convolve(y, w)[eq.delay : eq.delay + y.size]
        e = out[200:-200] - s[200:-200]
        return float(np.mean(e**2))

    base = mse(eq.taps)
    for k in range(eq.length):
        for sign in (1.0, -1.0):
            w = eq.taps.copy()
            w[k] += sign * 1e-3
            assert mse(w) >= base


def test_mmse_regularization_shrinks_taps():
    est = rx.ChannelEstimate((0.0, 1.0), np.array([1.0, 0.6]), 0.0)
    norms = [
        float(np.linalg.norm(bl.design_mmse(est, noise_var=v).taps))
        for v in (0.1, 10.0, 1e6)
    ]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-4


def test_mmse_errors():
    dead = rx.ChannelEstimate((0.0,), np.array([0.0]), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        bl.design_mmse(dead)
    # regularization rescues the same channel
    eq = bl.design_mmse(dead, noise_var=1.0)
    assert np.all(eq.taps == 0.0)
    frac = rx.ChannelEstimate((0.0, 1.5), np.array([1.0, 0.4]), 0.0)
    with pytest.raises(ValueError):
        bl.design_mmse(frac)
    est = rx.ChannelEstimate((0.0,), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        bl.design_mmse(est, noise_var=-1.0)
    with pytest.raises(ValueError):
        bl.design_mmse(est, delay=40)

