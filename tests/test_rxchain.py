"""Receiver chain: matched filter, sync, LS estimation, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosmodem import channel as ch
from chaosmodem import rxchain as rx
from chaosmodem import theory as th
from chaosmodem import txchain as tx
from chaosmodem import waveform as wf
from oracles import RESPONSE_TABLE, ThresholdState, threshold_suboptimal


def test_matched_filter_tap_symmetry():
    params = wf.WaveformParams()
    n_c = 8
    kernel = rx.matched_filter_taps(n_c, params).kernel
    assert kernel.size == n_c * (params.n_p + 1)
    j = np.arange(-(n_c - 1), params.n_p * n_c + 1)
    assert np.array_equal(kernel, wf.eval_basis(-j / n_c))


def test_matched_filter_peak_and_zero():
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    assert np.all(rx.matched_filter(np.zeros(64), mft) == 0.0)
    # isolated +1 surrounded by silence: symbol-instant output is the
    # pulse autocorrelation peak
    s = np.concatenate([np.zeros(params.n_p), [1.0], np.zeros(2)])
    x = wf.synth_waveform(s, n_c, params, strict=False)
    y = rx.matched_filter(x, mft)
    assert abs(y[params.n_p * n_c] - 1.3433) < 1e-4


def test_cascade_even_and_peak_precision():
    # the shaping/matched cascade is symmetric about its peak, and at a
    # fine grid the peak reproduces the closed-form autocorrelation
    params = wf.WaveformParams(n_p=16)
    n_c = 64
    j = np.arange(-params.n_p * n_c, n_c)
    pk = wf.eval_basis(j / n_c)
    g = rx.matched_filter_taps(n_c, params).kernel
    cas = np.convolve(pk, g) / n_c
    peak = int(np.argmax(cas))
    assert abs(cas[peak] - RESPONSE_TABLE[0.0]) < 1e-6
    span = min(peak, cas.size - 1 - peak)
    left = cas[peak - span:peak]
    right = cas[peak + 1:peak + span + 1][::-1]
    assert np.max(np.abs(left - right)) < 1e-9


def test_matched_filter_noise_variance():
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    rng = np.random.default_rng(2024)
    noise = rng.standard_normal(1_000_000)
    y = rx.matched_filter(noise, mft)
    expect = float(np.dot(mft.kernel, mft.kernel)) / n_c ** 2
    assert abs(float(np.var(y)) - expect) / expect < 0.01


def _training_template(train_syms, n_c, params, mft):
    x = wf.synth_waveform(np.asarray(train_syms, dtype=float), n_c, params)
    return rx.matched_filter(x, mft)[:len(train_syms) * n_c]


def test_frame_sync_exact_offset():
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    rng = np.random.default_rng(11)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(128, 128), seed=3)
    data = rng.choice([-1.0, 1.0], 128)
    syms = np.concatenate([train, data])
    x = wf.synth_waveform(syms, n_c, params)
    stream = np.concatenate([np.zeros(137), x])
    filtered = rx.matched_filter(stream, mft)
    template = _training_template(train, n_c, params, mft)
    res = rx.frame_sync(filtered, template, lobe_guard=n_c)
    assert res.ok
    assert res.offset == 137
    with pytest.raises(ValueError):
        rx.frame_sync(filtered[:10], template)


def test_frame_sync_noise_only_flagged():
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(128, 128), seed=3)
    template = _training_template(train, n_c, params, mft)
    rng = np.random.default_rng(77)
    noise = rx.matched_filter(rng.standard_normal(4000), mft)
    res = rx.frame_sync(noise, template, lobe_guard=n_c)
    assert not res.ok


def test_frame_sync_success_rate_at_6db():
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(128, 128), seed=3)
    template = _training_template(train, n_c, params, mft)
    e_b = n_c * RESPONSE_TABLE[0.0]
    sigma = ch.calibrate_noise(6.0, e_b)
    rng = np.random.default_rng(505)
    failures = 0
    trials = 300
    for _ in range(trials):
        data = rng.choice([-1.0, 1.0], 64)
        x = wf.synth_waveform(np.concatenate([train, data]), n_c, params)
        offset = int(rng.integers(20, 200))
        stream = np.concatenate([np.zeros(offset), x])
        stream = stream + sigma * rng.standard_normal(stream.size)
        res = rx.frame_sync(rx.matched_filter(stream, mft), template,
                            lobe_guard=n_c)
        if not (res.ok and res.offset == offset):
            failures += 1
    assert failures <= 3  # > 99% success


def test_sample_symbols_bounds():
    y = np.arange(100.0)
    got = rx.sample_symbols(y, 4, 8, 12)
    assert np.array_equal(got, y[4 + 8 * np.arange(12)])
    with pytest.raises(ValueError):
        rx.sample_symbols(y, -1, 8, 4)
    with pytest.raises(ValueError):
        rx.sample_symbols(y, 4, 8, 13)


def test_symbol_decomposition_matches_closed_form():
    # noiseless matched-filter outputs at symbol instants decompose into
    # the closed-form response sum to 1e-9 once the truncation window and
    # grid are fine enough to support that accuracy
    params = wf.WaveformParams(n_p=30)
    n_c = 512
    rng = np.random.default_rng(3)
    syms = rng.choice([-1.0, 1.0], 70)
    x = wf.synth_waveform(syms, n_c, params)
    y = rx.matched_filter(x, rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, 70)
    for n in range(30, 40):
        acc = sum(syms[m] * th.response_r(float(n - m))
                  for m in range(n - 30, min(70, n + 31)))
        assert abs(ysym[n] - acc) < 1e-9


def test_single_path_raw_sign_decisions():
    # zero-threshold decisions on the clean single-path channel: the
    # self-interference never overwhelms the symbol term
    params = wf.WaveformParams()
    n_c = 8
    rng = np.random.default_rng(21)
    syms = rng.choice([-1.0, 1.0], 20_000)
    y = rx.matched_filter(wf.synth_waveform(syms, n_c, params),
                          rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, syms.size)
    errors = int(np.sum(np.sign(ysym) != syms))
    assert errors / syms.size <= 1e-3


def test_channel_estimate_validation():
    rx.ChannelEstimate((0.0, 1.0), np.array([1.0, 0.5]), 0.1)
    with pytest.raises(ValueError):
        rx.ChannelEstimate((1.0, 0.0), np.array([1.0, 0.5]), 0.1)
    with pytest.raises(ValueError):
        rx.ChannelEstimate((0.0,), np.array([np.inf]), 0.1)
    with pytest.raises(ValueError):
        rx.ChannelEstimate((0.0,), np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        rx.ChannelEstimate((), np.array([]), 0.0)


def _cascade(design, max_delay=3):
    """Chaotic pulse cascade at each design lag minus each candidate delay."""
    return th.response_r(design.lags[:, None] - np.arange(max_delay + 1.0))


def test_ls_noiseless_two_path():
    params = wf.WaveformParams(n_p=16)
    n_c = 512
    rng = np.random.default_rng(3)
    syms = rng.choice([-1.0, 1.0], 160)
    spec = ch.get_preset("static2")
    x = ch.propagate(wf.synth_waveform(syms, n_c, params), spec, n_c)
    y = rx.matched_filter(x, rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, syms.size)
    design = rx.build_ls_design(syms, max_delay=3)
    est = rx.estimate_channel_ls(ysym[design.rows], design, _cascade(design))
    assert est.delays == (0.0, 1.0)
    true = np.array([1.0, math.exp(-0.6)])
    assert np.max(np.abs(est.gains - true) / true) < 1e-4
    assert est.noise_var < 1e-4


def test_ls_single_path_spurious_taps():
    params = wf.WaveformParams(n_p=16)
    n_c = 64
    rng = np.random.default_rng(5)
    syms = rng.choice([-1.0, 1.0], 160)
    x = wf.synth_waveform(syms, n_c, params)
    y = rx.matched_filter(x, rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, syms.size)
    design = rx.build_ls_design(syms, max_delay=3)
    obs, cascade = ysym[design.rows], _cascade(design)
    raw = rx.estimate_channel_ls(obs, design, cascade, spur_threshold=0.0)
    assert abs(raw.gains[0] - 1.0) < 0.02
    assert np.max(np.abs(raw.gains[1:])) < 0.02
    est = rx.estimate_channel_ls(obs, design, cascade)
    assert est.delays == (0.0,)


def test_ls_noisy_gain_rms():
    # 10 dB, 256 BPSK training symbols, two-path channel: pooled RMS gain
    # error stays under 5%
    params = wf.WaveformParams()
    n_c = 8
    mft = rx.matched_filter_taps(n_c, params)
    spec = ch.get_preset("static2")
    train = 1.0 - 2.0 * tx.gen_training(tx.FrameLayout(256, 2), seed=9)
    design = rx.build_ls_design(train, max_delay=3)
    cascade = _cascade(design)
    e_b = n_c * RESPONSE_TABLE[0.0]
    sigma = ch.calibrate_noise(10.0, e_b)
    true = np.array([1.0, math.exp(-0.6), 0.0, 0.0])
    rng = np.random.default_rng(606)
    sq_err = []
    for _ in range(300):
        x = ch.propagate(wf.synth_waveform(train, n_c, params), spec, n_c)
        y = rx.matched_filter(x + sigma * rng.standard_normal(x.size), mft)
        ysym = rx.sample_symbols(y, 0, n_c, train.size)
        est = rx.estimate_channel_ls(ysym[design.rows], design, cascade,
                                     spur_threshold=0.0)
        sq_err.append(np.mean((est.gains - true) ** 2))
    assert math.sqrt(float(np.mean(sq_err))) < 0.05


def test_ls_preconditions():
    rng = np.random.default_rng(1)
    short = rng.choice([-1.0, 1.0], 40)
    with pytest.raises(ValueError, match="usable rows"):
        rx.build_ls_design(short, max_delay=3)
    # constant training cannot separate the lags
    with pytest.raises(ValueError, match="rank deficient"):
        rx.build_ls_design(np.ones(256), max_delay=3)


def test_ls_design_stacks_rails():
    rng = np.random.default_rng(8)
    a, b = rng.choice([-1.0, 1.0], (2, 128))
    da, db = rx.build_ls_design(a), rx.build_ls_design(b)
    both = rx.build_ls_design(np.stack([a, b]))
    assert both.rows == da.rows
    assert np.array_equal(both.lags, da.lags)
    assert np.array_equal(both.design, np.vstack([da.design, db.design]))


def test_threshold_optimal_brute_force():
    est = rx.ChannelEstimate((0.0,), np.array([1.0]), 0.0)
    syms = np.array([-1.0, -1.0, 1.0, -1.0, -1.0])
    theta = rx.threshold_optimal(syms, est)
    radius = th.response_decay_radius(1e-9)
    for n in range(syms.size):
        brute = sum(syms[m] * th.response_r(float(n - m))
                    for m in range(syms.size) if m != n)
        # brute force over the frame only; the op truncates at the decay
        # radius, far beyond the frame span here
        assert abs(theta[n] - brute) < 1e-12
    assert radius > syms.size


def test_threshold_optimal_symmetry_and_constant():
    spec = ch.get_preset("static2")
    est = rx.ChannelEstimate(spec.delays, np.array(spec.gains), 0.0)
    ones = np.ones(80)
    theta = rx.threshold_optimal(ones, est)
    mid = theta[35:45]
    assert np.max(np.abs(mid - mid[0])) < 1e-9
    rng = np.random.default_rng(15)
    s = rng.choice([-1.0, 1.0], 60)
    assert np.max(np.abs(rx.threshold_optimal(-s, est)
                         + rx.threshold_optimal(s, est))) < 1e-12


def test_threshold_suboptimal_past_half_split():
    spec = ch.get_preset("static3")
    est = rx.ChannelEstimate(spec.delays, np.array(spec.gains), 0.0)
    w = rx.decision_window(est)
    assert w == 5 + 2
    rng = np.random.default_rng(33)
    past = rng.choice([-1.0, 1.0], w)
    state = ThresholdState.fresh(rx.isi_feedback_coeffs(est, w))
    for sym in past[::-1]:
        state.push(sym)
    theta = threshold_suboptimal(state)
    brute = sum(past[k - 1] * sum(g * th.response_r(float(k - d))
                                  for d, g in zip(est.delays, est.gains))
                for k in range(1, w + 1))
    assert abs(theta - brute) < 1e-12


def test_threshold_suboptimal_zero_mean():
    est = rx.ChannelEstimate((0.0,), np.array([1.0]), 0.0)
    rng = np.random.default_rng(88)
    w = rx.decision_window(est)
    coeffs = rx.isi_feedback_coeffs(est, w)
    draws = rng.choice([-1.0, 1.0], size=(20_000, w))
    thetas = draws @ coeffs
    assert abs(float(np.mean(thetas))) < 3.0 * float(np.std(thetas)) / math.sqrt(20_000)


def test_threshold_window_extension_bound():
    # the fixed window leaves a geometric tail; doubling the window moves
    # the threshold by at most twice the first omitted coefficient (which
    # is far larger than 1e-6, so the window length genuinely matters)
    spec = ch.get_preset("static2")
    est = rx.ChannelEstimate(spec.delays, np.array(spec.gains), 0.0)
    w = rx.decision_window(est)
    long_w = 2 * w
    coeffs = rx.isi_feedback_coeffs(est, long_w)
    rng = np.random.default_rng(44)
    bound = 2.0 * abs(coeffs[w])
    assert bound > 1e-6
    worst = 0.0
    for _ in range(200):
        past = rng.choice([-1.0, 1.0], long_w)
        th_short = float(np.dot(past[:w], coeffs[:w]))
        th_long = float(np.dot(past, coeffs))
        worst = max(worst, abs(th_long - th_short))
    assert worst <= bound + 1e-12
    assert worst > 1e-6


def test_decide_rules():
    assert rx.decide(0.3, 0.0) == 1.0
    assert rx.decide(0.5, 0.5) == 1.0
    assert rx.decide(-0.2, -0.1) == -1.0
    rng = np.random.default_rng(4)
    y = rng.standard_normal(500)
    t = rng.standard_normal(500)
    base = rx.decide(y, t)
    for c in (0.5, 3.0, 17.0):
        assert np.array_equal(rx.decide(c * y, c * t), base)


def test_decode_genie_noiseless_exact():
    params = wf.WaveformParams()
    n_c = 8
    spec = ch.get_preset("static3")
    est = rx.ChannelEstimate(spec.delays, np.array(spec.gains), 0.0)
    rng = np.random.default_rng(61)
    syms = rng.choice([-1.0, 1.0], 600)
    x = ch.propagate(wf.synth_waveform(syms, n_c, params), spec, n_c)
    y = rx.matched_filter(x, rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, syms.size)
    dec = rx.decide(ysym, rx.threshold_optimal(syms, est))
    assert np.array_equal(dec, syms)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(preset=st.sampled_from(["static2", "static3"]),
       sigma=st.floats(0.0, 1.0),
       n_train=st.integers(0, 96),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decode_suboptimal_matches_state_api(preset, sigma, n_train, seed):
    # the batch decoder is the fixed point of the per-symbol recursion:
    # replaying it through the reference state machine gives the same
    # decisions bit for bit, at any noise level and training length
    params = wf.WaveformParams()
    n_c = 8
    spec = ch.get_preset(preset)
    est = rx.ChannelEstimate(spec.delays, np.array(spec.gains), 0.05)
    rng = np.random.default_rng(seed)
    syms = rng.choice([-1.0, 1.0], 200)
    x = ch.propagate(wf.synth_waveform(syms, n_c, params), spec, n_c)
    y = rx.matched_filter(x + sigma * rng.standard_normal(x.size),
                          rx.matched_filter_taps(n_c, params))
    ysym = rx.sample_symbols(y, 0, n_c, syms.size)
    fast = rx.decode_suboptimal(ysym, syms[:n_train], est)
    state = ThresholdState.fresh(
        rx.isi_feedback_coeffs(est, rx.decision_window(est)))
    slow = np.empty(syms.size)
    for n in range(syms.size):
        if n < n_train:
            slow[n] = syms[n]
        else:
            slow[n] = rx.decide(ysym[n], threshold_suboptimal(state))
        state.push(slow[n])
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast[:n_train], syms[:n_train])
    with pytest.raises(ValueError):
        rx.decode_suboptimal(ysym[:10], syms[:64], est)
