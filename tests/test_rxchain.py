"""Receiver chain: matched filter, sync, LS estimation, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosmodem import channel as ch
from chaosmodem import harness as H
from chaosmodem import rxchain as rx
from chaosmodem import theory as th
from chaosmodem import waveform as wf
from oracles import (RESPONSE_TABLE, ThresholdState, composite_response,
                     dd_loop, decide, dense_gains, frame_sync_stream,
                     genie_response, isi_feedback_coeffs, pn_bits,
                     threshold_suboptimal)

SINGLE_PATH = np.ones(1)


def test_matched_filter_tap_symmetry():
    # the matched filter's impulse response is the time-reversed pulse
    # g(j/n_c) = p(-j/n_c), j = -(n_c-1)..N_P*n_c, bitwise, divided by n_c
    for n_c in range(2, 17):
        j = np.arange(-(n_c - 1), wf.N_P * n_c + 1)
        kernel = wf.eval_basis(-j / n_c)
        impulse = np.zeros(kernel.size)
        impulse[n_c - 1] = 1.0
        y = rx.matched_filter(impulse, n_c)
        assert y.size == kernel.size + wf.N_P * n_c
        assert y[:kernel.size].tobytes() == (kernel / n_c).tobytes()
        assert not y[kernel.size:].any()


def test_matched_filter_peak_and_zero():
    n_c = 8
    assert np.all(rx.matched_filter(np.zeros(64), n_c) == 0.0)
    # isolated +1 surrounded by silence: symbol-instant output is the
    # pulse autocorrelation peak
    s = np.concatenate([np.zeros(wf.N_P), [1.0], np.zeros(2)])
    x = wf.synth_waveform(s, n_c)
    y = rx.matched_filter(x, n_c)
    assert abs(y[wf.N_P * n_c] - 1.3433) < 1e-4


def test_cascade_even_and_peak_precision():
    # the shaping/matched cascade is symmetric about its peak, and at a
    # fine grid the peak reproduces the closed-form autocorrelation
    n_p, n_c = 16, 64
    j = np.arange(-n_p * n_c, n_c)
    pk = wf.eval_basis(j / n_c)
    cas = np.convolve(pk, pk[::-1]) / n_c
    peak = int(np.argmax(cas))
    assert abs(cas[peak] - RESPONSE_TABLE[0.0]) < 1e-6
    span = min(peak, cas.size - 1 - peak)
    left = cas[peak - span:peak]
    right = cas[peak + 1:peak + span + 1][::-1]
    assert np.max(np.abs(left - right)) < 1e-9


def test_matched_filter_noise_variance():
    n_c = 8
    rng = np.random.default_rng(2024)
    noise = rng.standard_normal(1_000_000)
    y = rx.matched_filter(noise, n_c)
    g = wf.shaping_taps(n_c)
    expect = float(np.dot(g, g)) / n_c ** 2
    assert abs(float(np.var(y)) - expect) / expect < 0.01


def _training_template(train_syms, n_c):
    x = wf.synth_waveform(np.asarray(train_syms, dtype=float), n_c)
    return rx.matched_filter(x, n_c)[:len(train_syms) * n_c]


def test_frame_sync_exact_offset():
    n_c = 8
    rng = np.random.default_rng(11)
    train = 1.0 - 2.0 * pn_bits(128, 3)
    data = rng.choice([-1.0, 1.0], 128)
    syms = np.concatenate([train, data])
    x = wf.synth_waveform(syms, n_c)
    stream = np.concatenate([np.zeros(137), x])
    filtered = rx.matched_filter(stream, n_c)
    template = _training_template(train, n_c)
    silence = np.zeros(filtered.size)
    assert rx.frame_sync(filtered, template, silence, [0.0]).tolist() == [137]
    with pytest.raises(ValueError):
        rx.frame_sync(filtered[:10], template, silence[:10], [0.0])
    with pytest.raises(ValueError):
        rx.frame_sync(filtered, template, silence[:-1], [0.0])


def test_frame_sync_success_rate_at_6db():
    n_c = 8
    train = 1.0 - 2.0 * pn_bits(128, 3)
    template = _training_template(train, n_c)
    e_b = n_c * RESPONSE_TABLE[0.0]
    sigma = ch.calibrate_noise(6.0, e_b)
    rng = np.random.default_rng(505)
    failures = 0
    trials = 300
    for _ in range(trials):
        data = rng.choice([-1.0, 1.0], 64)
        x = wf.synth_waveform(np.concatenate([train, data]), n_c)
        offset = int(rng.integers(20, 200))
        stream = np.concatenate([np.zeros(offset), x])
        noise = rx.matched_filter(rng.standard_normal(stream.size), n_c)
        filtered = rx.matched_filter(stream, n_c)
        if rx.frame_sync(filtered, template, noise, [sigma])[0] != offset:
            failures += 1
    assert failures <= 3  # > 99% success


def test_frame_sync_batch_matches_rows():
    # correlating signal and noise once each gives, for every sigma, the
    # offset a correlation of the formed stream signal + sigma * noise
    # finds, at pads of 0, 2 and 20 symbols, and on noise-only windows; a
    # silent window peaks at offset 0 without a RuntimeWarning (which the
    # test settings turn into an error)
    n_c = 8
    train = 1.0 - 2.0 * pn_bits(128, 3)
    template = _training_template(train, n_c)
    rng = np.random.default_rng(21)
    x = wf.synth_waveform(np.concatenate([train, rng.choice([-1.0, 1.0], 32)]),
                          n_c)
    sigmas = np.array([0.0, 0.3, 1.0, 3.0, 30.0])
    noise = rx.matched_filter(rng.standard_normal(1300), n_c)[:1300]
    for pad in (0, 2, 20):
        sig = rx.matched_filter(np.concatenate([np.zeros(pad * n_c), x]),
                                n_c)[:noise.size]
        got = rx.frame_sync(sig, template, noise, sigmas)
        assert got.shape == sigmas.shape
        assert got.tolist() == [frame_sync_stream(sig + s * noise, template)
                                for s in sigmas]
        assert got[0] == pad * n_c
    # windows without the training: noise only, and payload symbols, where
    # every offset's normalized correlation is small and the peak rests
    # on the window energy's cross term
    silence = np.zeros(noise.size)
    payload = rx.matched_filter(wf.synth_waveform(
        rng.choice([-1.0, 1.0], 170), n_c), n_c)[:noise.size]
    for sig in (silence, payload):
        got = rx.frame_sync(sig, template, noise, sigmas[1:])
        assert got.tolist() == [frame_sync_stream(sig + s * noise, template)
                                for s in sigmas[1:]]
    # a noise stream that nearly cancels the signal leaves the cross term
    # most of the energy, which a short template over a signal of rising
    # amplitude makes decide the peak; where it cancels exactly, the
    # energy is zero and the stream silent
    short = template[:16 * n_c]
    ramped = payload * np.linspace(0.2, 2.0, noise.size)
    cancel = 0.3 * noise - ramped
    near = np.array([0.5, 0.9, 1.0, 1.1, 2.0])
    got = rx.frame_sync(ramped, short, cancel, near)
    assert got.tolist() == [frame_sync_stream(ramped + s * cancel, short)
                            for s in near]
    assert rx.frame_sync(ramped, short, -ramped, [1.0]).tolist() == [0]
    # where it cancels only to rounding, the energy's rounding goes below
    # zero, which is clipped rather than passed to the square root
    (got,) = rx.frame_sync(ramped, short, -ramped / 3.0, [3.0])
    assert 0 <= got <= noise.size - short.size
    assert rx.frame_sync(silence, template, silence, sigmas).tolist() == [0] * 5


def test_symbol_decomposition_matches_closed_form():
    # noiseless matched-filter outputs at symbol instants decompose into
    # the closed-form response sum to 1e-9 once the truncation window and
    # grid are fine enough to support that accuracy: a 30-period pulse
    # shaped and matched-filtered here as synth_waveform and matched_filter
    # do at N_P periods
    n_p, n_c = 30, 512
    taps = wf.eval_basis(np.arange(-n_p * n_c, n_c) / n_c)
    rng = np.random.default_rng(3)
    syms = rng.choice([-1.0, 1.0], 70)
    up = np.zeros(syms.size * n_c)
    up[::n_c] = syms
    x = np.convolve(up, taps)[n_p * n_c:n_p * n_c + up.size]
    y = np.convolve(x, taps[::-1])[n_c - 1:x.size + taps.size - 1] / n_c
    ysym = y[::n_c][:70]
    for n in range(30, 40):
        acc = sum(syms[m] * th.response_r(float(n - m))
                  for m in range(n - 30, min(70, n + 31)))
        assert abs(ysym[n] - acc) < 1e-9


def test_single_path_raw_sign_decisions():
    # zero-threshold decisions on the clean single-path channel: the
    # self-interference never overwhelms the symbol term
    n_c = 8
    rng = np.random.default_rng(21)
    syms = rng.choice([-1.0, 1.0], 20_000)
    y = rx.matched_filter(wf.synth_waveform(syms, n_c), n_c)
    ysym = y[::n_c][:syms.size]
    errors = int(np.sum(np.sign(ysym) != syms))
    assert errors / syms.size <= 1e-3


def _cascade():
    """Chaotic pulse cascade at each LS lag minus each candidate delay."""
    return th.response_r(rx.LAGS[:, None] - np.arange(rx.MAX_DELAY + 1.0))


def _design(train):
    return rx.build_ls_design(train, _cascade())


def test_ls_noiseless_two_path():
    n_c = 512
    rng = np.random.default_rng(3)
    syms = rng.choice([-1.0, 1.0], 160)
    spec = ch.get_preset("static2")
    x = ch.propagate(wf.synth_waveform(syms, n_c), spec, n_c)
    y = rx.matched_filter(x, n_c)
    ysym = y[::n_c][:syms.size]
    design = _design(syms)
    (gains,), (noise_var,) = rx.estimate_channel_ls(ysym[design.rows][None],
                                                    design)
    assert np.flatnonzero(gains).tolist() == [0, 1]
    true = np.array([1.0, math.exp(-0.6)])
    assert np.max(np.abs(gains[:2] - true) / true) < 1e-4
    assert noise_var < 1e-4


def test_ls_single_path_spurious_taps(monkeypatch):
    n_c = 64
    rng = np.random.default_rng(5)
    syms = rng.choice([-1.0, 1.0], 160)
    x = wf.synth_waveform(syms, n_c)
    y = rx.matched_filter(x, n_c)
    ysym = y[::n_c][:syms.size]
    design = _design(syms)
    obs = ysym[design.rows][None]
    (gains,), _ = rx.estimate_channel_ls(obs, design)
    assert np.flatnonzero(gains).tolist() == [0]
    monkeypatch.setattr(rx, "SPUR_THRESHOLD", 0.0)
    (raw,), _ = rx.estimate_channel_ls(obs, design)
    assert abs(raw[0] - 1.0) < 0.02
    assert np.max(np.abs(raw[1:])) < 0.02


def test_ls_noisy_gain_rms(monkeypatch):
    # 10 dB, 256 BPSK training symbols, two-path channel: pooled RMS gain
    # error stays under 5%
    n_c = 8
    spec = ch.get_preset("static2")
    train = 1.0 - 2.0 * pn_bits(256, 9)
    design = _design(train)
    monkeypatch.setattr(rx, "SPUR_THRESHOLD", 0.0)
    e_b = n_c * RESPONSE_TABLE[0.0]
    sigma = ch.calibrate_noise(10.0, e_b)
    true = np.array([1.0, math.exp(-0.6), 0.0, 0.0])
    rng = np.random.default_rng(606)
    sq_err = []
    for _ in range(300):
        x = ch.propagate(wf.synth_waveform(train, n_c), spec, n_c)
        y = rx.matched_filter(x + sigma * rng.standard_normal(x.size), n_c)
        ysym = y[::n_c][:train.size]
        gains, _ = rx.estimate_channel_ls(ysym[design.rows][None], design)
        sq_err.append(np.mean((gains[0] - true) ** 2))
    assert math.sqrt(float(np.mean(sq_err))) < 0.05


def test_ls_batch_matches_rows():
    # a (P, m) batch gives each row's own one-row estimate bitwise, whose
    # stage one is the plain pinv @ obs; rows keep different path sets,
    # and a dropped path's gain is an exact zero
    rng = np.random.default_rng(31)
    train = rng.choice([-1.0, 1.0], (2, 128))
    cascade = _cascade()
    design = rx.build_ls_design(train, cascade)
    truth = np.array([[1.0, 0.5, 0.2, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.7, -0.4, 0.0, 0.3], [1.0, 0.01, 0.6, 0.0]] * 4)
    obs = (design.design @ cascade @ truth.T).T
    obs += np.linspace(0.0, 0.5, len(truth))[:, None] * rng.standard_normal(
        obs.shape)
    gains, noise_var = rx.estimate_channel_ls(obs, design)
    assert gains.shape == truth.shape and noise_var.shape == (len(obs),)
    assert len({tuple(np.flatnonzero(g)) for g in gains}) > 1
    dof = obs.shape[1] - rx.LAGS.size
    for row, g, v in zip(obs, gains, noise_var):
        (want,), (want_var,) = rx.estimate_channel_ls(row[None], design)
        assert g.tobytes() == want.tobytes()
        assert v == want_var
        resid = row - design.design @ (design.pinv @ row)
        assert want_var == float(np.dot(resid, resid)) / dof
    for bad in (obs[0], obs[None]):
        with pytest.raises(ValueError, match="must be 2-d"):
            rx.estimate_channel_ls(bad, design)


@pytest.mark.parametrize("family", ("chaotic", "rrc"))
@pytest.mark.parametrize("n_c", (8, 6, 4))
def test_subset_solvers_match_lstsq(family, n_c):
    # every one of the 15 delay subsets: its solver is lstsq on the kept
    # cascade columns to 1e-12, with +0.0 rows at the dropped delays; and
    # an estimate that keeps exactly that subset (noiseless gains at or
    # above the spur threshold) refits with it and writes +0.0 for every
    # dropped gain
    method = "chaotic-subopt" if family == "chaotic" else "rrc-mmse"
    ctx = H._Context(H.ExperimentConfig(method, "quasi3", (6.0,), n_c=n_c),
                     True)
    design = ctx.design
    solvers = design.solvers
    cascade = ctx.pulse.cascade(rx.LAGS)
    assert solvers.shape == (16, 4, rx.LAGS.size)
    assert not solvers.flags.writeable and not solvers[0].any()
    rng = np.random.default_rng(n_c)
    for mask in range(1, 16):
        kept = [d for d in range(4) if mask >> d & 1]
        dropped = [d for d in range(4) if d not in kept]
        r = rng.standard_normal(rx.LAGS.size)
        want = np.linalg.lstsq(cascade[:, kept], r, rcond=None)[0]
        assert np.max(np.abs(solvers[mask, kept] @ r - want)) < 1e-12
        assert solvers[mask, dropped].tobytes() == bytes(
            8 * len(dropped) * rx.LAGS.size)
        truth = np.zeros((3, 4))
        truth[:, kept] = rng.choice([-1.0, 1.0], (3, len(kept))) * (
            rng.uniform(0.2, 1.0, (3, len(kept))))
        obs = (design.design @ cascade @ truth.T).T
        gains, _ = rx.estimate_channel_ls(obs, design)
        for row, g in zip(obs, gains):
            r_hat = design.pinv @ row
            want = np.linalg.lstsq(cascade[:, kept], r_hat, rcond=None)[0]
            assert np.max(np.abs(g[kept] - want)) < 1e-12
            assert g[dropped].tobytes() == bytes(8 * len(dropped))


def test_ls_preconditions():
    rng = np.random.default_rng(1)
    short = rng.choice([-1.0, 1.0], 40)
    with pytest.raises(ValueError, match="usable rows"):
        rx.build_ls_design(short, _cascade())
    # constant training cannot separate the lags
    with pytest.raises(ValueError, match="rank deficient"):
        rx.build_ls_design(np.ones(256), _cascade())


def test_ls_design_stacks_rails():
    rng = np.random.default_rng(8)
    a, b = rng.choice([-1.0, 1.0], (2, 128))
    # the design stacks the rails' regressions; pinv and basis are numpy's
    # of it, the solvers depend on the cascade only, and all are read-only
    cascade = _cascade()
    da, db = _design(a), _design(b)
    both = rx.build_ls_design(np.stack([a, b]), cascade)
    assert both.rows == da.rows
    assert np.array_equal(both.design, np.vstack([da.design, db.design]))
    assert both.pinv.tobytes() == np.linalg.pinv(both.design).tobytes()
    assert both.basis.tobytes() == np.linalg.qr(
        both.design @ cascade)[0].tobytes()
    assert both.solvers.tobytes() == da.solvers.tobytes()
    for arr in (both.pinv, both.design, both.solvers, both.basis):
        assert not arr.flags.writeable


def test_composite_response_matches_path_sum():
    # the one builder of composite responses, over the chaotic pulse's
    # cascade table, is the closed-form path sum bitwise: on the presets
    # at lags -31..31, and on random gains rows with missing (zero) paths
    lags = np.arange(-31, 32)
    cascade = H.pulse_for("chaotic", 8).cascade(lags)
    for preset in ("static2", "static3"):
        gains = ch.get_preset(preset)
        got = rx.composite_response(dense_gains(gains)[None], cascade)
        assert got.shape == (1, lags.size)
        assert got[0].tobytes() == composite_response(lags, gains).tobytes()
    rng = np.random.default_rng(21)
    gains = rng.uniform(-1.5, 1.5, (60, rx.MAX_DELAY + 1))
    gains[rng.random(gains.shape) < 0.4] = 0.0
    gains[-1] = 0.0  # no path at all
    assert not gains[:, 0].all()
    got = rx.composite_response(gains, cascade)
    assert got.shape == (60, lags.size)
    for row, g in zip(got, gains):
        assert row.tobytes() == composite_response(lags, g).tobytes()


def test_threshold_optimal_brute_force():
    syms = np.array([-1.0, -1.0, 1.0, -1.0, -1.0])
    theta = rx.threshold_optimal(syms, genie_response(SINGLE_PATH))
    for n in range(syms.size):
        brute = sum(syms[m] * th.response_r(float(n - m))
                    for m in range(syms.size) if m != n)
        # brute force over the frame only; the op truncates at the decay
        # radius, far beyond the frame span here
        assert abs(theta[n] - brute) < 1e-12
    assert th.DECAY_RADIUS > syms.size


def test_threshold_optimal_symmetry_and_constant():
    spec = ch.get_preset("static2")
    ones = np.ones(80)
    response = genie_response(spec)
    theta = rx.threshold_optimal(ones, response)
    mid = theta[35:45]
    assert np.max(np.abs(mid - mid[0])) < 1e-9
    rng = np.random.default_rng(15)
    s = rng.choice([-1.0, 1.0], 60)
    assert np.max(np.abs(rx.threshold_optimal(-s, response)
                         + rx.threshold_optimal(s, response))) < 1e-12


def test_threshold_suboptimal_past_half_split():
    spec = ch.get_preset("static3")
    w = rx.decision_window(dense_gains(spec))
    assert type(w) is int and w == 5 + 2
    # per row, from the last nonzero gain; a row without one reaches D - 1
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0],
                     [0.0, 0.3, 0.0, -0.2], [0.0, 0.0, 0.0, 0.0]])
    assert rx.decision_window(rows).tolist() == [5, 7, 8, 8]
    rng = np.random.default_rng(33)
    past = rng.choice([-1.0, 1.0], w)
    state = ThresholdState.fresh(isi_feedback_coeffs(spec, w))
    for sym in past[::-1]:
        state.push(sym)
    theta = threshold_suboptimal(state)
    brute = sum(past[k - 1] * sum(g * th.response_r(float(k - d))
                                  for d, g in enumerate(spec))
                for k in range(1, w + 1))
    assert abs(theta - brute) < 1e-12


def test_threshold_suboptimal_zero_mean():
    rng = np.random.default_rng(88)
    w = rx.decision_window(dense_gains(SINGLE_PATH))
    coeffs = isi_feedback_coeffs(SINGLE_PATH, w)
    draws = rng.choice([-1.0, 1.0], size=(20_000, w))
    thetas = draws @ coeffs
    assert abs(float(np.mean(thetas))) < 3.0 * float(np.std(thetas)) / math.sqrt(20_000)


def test_threshold_window_extension_bound():
    # the fixed window leaves a geometric tail; doubling the window moves
    # the threshold by at most twice the first omitted coefficient (which
    # is far larger than 1e-6, so the window length genuinely matters)
    spec = ch.get_preset("static2")
    w = rx.decision_window(dense_gains(spec))
    long_w = 2 * w
    coeffs = isi_feedback_coeffs(spec, long_w)
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
    assert decide(0.3, 0.0) == 1.0
    assert decide(0.5, 0.5) == 1.0
    assert decide(-0.2, -0.1) == -1.0
    assert decide(np.float64(-0.2), 0.0).dtype == np.int8
    rng = np.random.default_rng(4)
    y = rng.standard_normal(500)
    t = rng.standard_normal(500)
    base = decide(y, t)
    # int8 +-1, as the decision-feedback decoder returns
    assert base.dtype == np.int8
    assert np.array_equal(base, np.where(y >= t, 1.0, -1.0))
    for c in (0.5, 3.0, 17.0):
        assert np.array_equal(decide(c * y, c * t), base)


def test_decode_genie_noiseless_exact():
    n_c = 8
    spec = ch.get_preset("static3")
    rng = np.random.default_rng(61)
    syms = rng.choice([-1.0, 1.0], 600)
    x = ch.propagate(wf.synth_waveform(syms, n_c), spec, n_c)
    y = rx.matched_filter(x, n_c)
    ysym = y[::n_c][:syms.size]
    dec = decide(ysym, rx.threshold_optimal(syms, genie_response(spec)))
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
    n_c = 8
    spec = ch.get_preset(preset)
    rng = np.random.default_rng(seed)
    syms = rng.choice([-1.0, 1.0], 200)
    x = ch.propagate(wf.synth_waveform(syms, n_c), spec, n_c)
    y = rx.matched_filter(x + sigma * rng.standard_normal(x.size), n_c)
    ysym = y[::n_c][:syms.size]
    coeffs = isi_feedback_coeffs(spec, rx.decision_window(dense_gains(spec)))
    fast = rx.decode_suboptimal(ysym, syms[:n_train], coeffs)
    state = ThresholdState.fresh(coeffs)
    slow = np.empty(syms.size)
    for n in range(syms.size):
        if n < n_train:
            slow[n] = syms[n]
        else:
            slow[n] = decide(ysym[n], threshold_suboptimal(state))
        state.push(slow[n])
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast[:n_train], syms[:n_train])
    with pytest.raises(ValueError):
        rx.decode_suboptimal(ysym[:10], syms[:64], coeffs)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(preset=st.sampled_from(["static2", "static3"]),
       n_rows=st.integers(1, 6),
       n=st.integers(1, 90),
       train_frac=st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
       shared=st.booleans(),
       per_row=st.booleans(),
       kind=st.sampled_from(["noise", "ties", "zeros"]),
       start=st.sampled_from(["signs", "flips", "wrong", "zeros", "reals"]),
       scale=st.floats(0.05, 3.0),
       points=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decode_suboptimal_batch_matches_loop(preset, n_rows, n, train_frac,
                                              shared, per_row, kind, start,
                                              scale, points, seed):
    # a (B, n) call decides every row exactly as the plain per-symbol loop
    # does: no training, shared or per-row training, shared coefficients or
    # one row each (its own gains and window, zero-padded to the widest),
    # exact ties (which go to +1) and the signal-free y == 0 case where
    # each pass settles only one more symbol; from any initial iterate:
    # the default signs of y, the symbols y was built from with random
    # flips, the loop's decisions all negated (training part included,
    # which the prefix overrides), zeros or random reals; and a (P, 2, n)
    # batch of grid points whose rails share guess and training (2, n) and
    # (2, n_train), and coefficients (w,) or (P, 2, w)
    spec = ch.get_preset(preset)
    rng = np.random.default_rng(seed)

    def feedback(rows):
        if not per_row:
            coeffs = isi_feedback_coeffs(
                spec, rx.decision_window(dense_gains(spec)))
            return coeffs, [coeffs] * rows
        own = [isi_feedback_coeffs(rng.uniform(-1.0, 1.0, spec.size),
                                   int(rng.integers(0, 9)))
               for _ in range(rows)]
        width = max(c.size for c in own)
        return np.array([np.pad(c, (0, width - c.size)) for c in own]), own

    coeffs, own = feedback(n_rows)
    n_train = int(train_frac * n)
    want = rng.choice([-1.0, 1.0], (n_rows, n))
    if shared:
        want[:, :n_train] = want[0, :n_train]
    if kind == "noise":
        y = scale * rng.standard_normal((n_rows, n))
    elif kind == "zeros":
        y = np.zeros((n_rows, n))
    else:
        # y equal to the loop's own threshold wherever a decision of +1 is
        # forced, far from it elsewhere
        tie = rng.random((n_rows, n)) < 0.5
        want[:, n_train:][tie[:, n_train:]] = 1.0
        y = 1e3 * want
        for b in range(n_rows):
            thetas = dd_loop(y[b], want[b].copy(), own[b], n_train)
            y[b, tie[b]] = thetas[tie[b]]
    train = want[0, :n_train] if shared else want[:, :n_train]
    slow = np.empty((n_rows, n))
    slow[:, :n_train] = train
    for b in range(n_rows):
        dd_loop(y[b], slow[b], own[b], n_train)
        if kind == "ties":
            assert np.array_equal(slow[b], want[b])
    guess = {"signs": None,
             "flips": np.where(rng.random((n_rows, n)) < 0.1, -want, want),
             "wrong": -slow,
             "zeros": np.zeros((n_rows, n)),
             "reals": rng.standard_normal((n_rows, n))}[start]
    fast = rx.decode_suboptimal(y, train, coeffs, guess=guess)
    assert fast.shape == y.shape and fast.dtype == np.int8
    for b in range(n_rows):
        assert np.array_equal(fast[b], slow[b])
    assert np.array_equal(rx.decode_suboptimal(y, train, coeffs), fast)
    assert np.array_equal(rx.decode_suboptimal(
        y[0], want[0, :n_train], own[0],
        guess=None if guess is None else guess[0]), fast[0])

    sent = rng.choice([-1.0, 1.0], (2, n))
    ys = scale * rng.standard_normal((points, 2, n))
    if kind != "zeros":
        ys += sent
    coeffs, own = feedback(2 * points)
    if per_row:
        coeffs = coeffs.reshape(points, 2, -1)
    fast = rx.decode_suboptimal(ys, sent[:, :n_train], coeffs, guess=sent)
    assert fast.shape == ys.shape and fast.dtype == np.int8
    for b, (row, c) in enumerate(zip(ys.reshape(-1, n), own)):
        slow = sent[b % 2].copy()
        dd_loop(row, slow, c, n_train)
        assert np.array_equal(fast.reshape(-1, n)[b], slow)


def test_decode_suboptimal_rejects_mismatched_rows():
    spec = ch.get_preset("static2")
    coeffs = isi_feedback_coeffs(spec, rx.decision_window(dense_gains(spec)))
    y = np.zeros((4, 20))
    with pytest.raises(ValueError, match="3 training rows for 4"):
        rx.decode_suboptimal(y, np.ones((3, 5)), coeffs)
    with pytest.raises(ValueError, match="3 coefficient rows for 4"):
        rx.decode_suboptimal(y, np.ones(5), np.tile(coeffs, (3, 1)))
    with pytest.raises(ValueError, match="training longer"):
        rx.decode_suboptimal(y, np.ones((4, 21)), coeffs)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        rx.decode_suboptimal(y, np.ones((2, 2, 2)), coeffs)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        rx.decode_suboptimal(y, np.ones(5), np.zeros((4, 1, 6)))
    with pytest.raises(ValueError, match="at least 1-d"):
        rx.decode_suboptimal(np.float64(0.0), np.ones(0), coeffs)
    with pytest.raises(ValueError, match="guess"):
        rx.decode_suboptimal(y, np.ones(5), coeffs, guess=np.ones((4, 19)))
    with pytest.raises(ValueError, match="guess"):
        rx.decode_suboptimal(y[0], np.ones(5), coeffs, guess=np.ones((1, 20)))
    # a (P, 2, n) batch: leading shapes must broadcast to (P, 2)
    y3 = np.zeros((3, 2, 20))
    with pytest.raises(ValueError, match="4 x 2 training rows for 3 x 2"):
        rx.decode_suboptimal(y3, np.ones((4, 2, 5)), coeffs)
    with pytest.raises(ValueError, match="3 x 3 coefficient rows for 3 x 2"):
        rx.decode_suboptimal(y3, np.ones(5), np.zeros((3, 3, 6)))
    with pytest.raises(ValueError, match="3 guess rows for 3 x 2"):
        rx.decode_suboptimal(y3, np.ones(5), coeffs, guess=np.ones((3, 20)))
    with pytest.raises(ValueError, match="guess"):
        rx.decode_suboptimal(y3, np.ones(5), coeffs, guess=np.ones((2, 19)))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        rx.decode_suboptimal(y3, np.zeros(5), coeffs)
    assert rx.decode_suboptimal(y3, np.ones((2, 5)), coeffs).shape == y3.shape
