"""Closed-form response and BER formula checks against independent oracles."""

import math

import numpy as np
import pytest

from chaosmodem import theory
from chaosmodem.channel import MultipathSpec, STATIC_PRESETS

from oracles import BER_SUB_TABLE, ERFC_TABLE, PRESET_P_K, RESPONSE_TABLE, brute_response


def test_response_constants_match_definitions():
    w, b = 2 * math.pi, math.log(2.0)
    assert abs(theory.A - 0.3433) < 1e-4
    assert theory.A == (w * w - 3 * b * b) / (4 * b * (w * w + b * b))
    assert theory.B == (3 * w * w - b * b) / (4 * w * (w * w + b * b))
    assert theory.R_PEAK == 1 + theory.A * (2 - 2 * math.exp(-b))
    assert abs(theory.R_PEAK - 1.3433) < 1e-4


def test_response_frozen_values():
    for lag, want in RESPONSE_TABLE.items():
        got = theory.response_r(lag)
        assert abs(got - want) < 1e-12, f"r({lag}) = {got}, expected {want}"


def test_response_peak_at_path_delay():
    for tau in (0.0, 1.0, 2.0):
        assert abs(theory.response_r(tau, tau=tau) - 1.3433) < 1e-4


def test_response_branch_continuity():
    lo = theory.response_r(math.nextafter(1.0, 0.0))
    hi = theory.response_r(math.nextafter(1.0, 2.0))
    assert abs(lo - hi) < 1e-9


def test_response_even_and_linear_in_alpha():
    rng = np.random.default_rng(411)
    t = rng.uniform(-5, 5, size=200)
    for tau in (0.0, 1.0, 0.625):
        fwd = theory.response_r(t, tau=tau)
        rev = theory.response_r(2 * tau - t, tau=tau)
        np.testing.assert_allclose(fwd, rev, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(theory.response_r(t, tau, 2.0),
                                      2.0 * theory.response_r(t, tau, 1.0))


def test_response_matches_brute_convolution():
    # independent Riemann-sum oracle on a 1e-3 grid; also the closed form
    # must track it to 1e-5 across several symbol periods
    lags = np.arange(-4000, 4001) * 1e-3
    ref = brute_response(lags, step=1e-3)
    for tau in (0.0, 1.0, 2.0):
        got = theory.response_r(lags + tau, tau=tau)
        err = np.max(np.abs(got - ref))
        assert err < 1e-5, f"tau={tau}: max closed-form error {err:.2e}"


def test_composite_response_is_path_sum():
    ch = STATIC_PRESETS["static3"]
    t = np.linspace(-3, 5, 64)
    manual = sum(theory.response_r(t, tau, a)
                 for tau, a in zip(ch.delays, ch.gains))
    np.testing.assert_allclose(theory.composite_response(t, ch), manual,
                               rtol=0, atol=1e-15)


def test_response_decay_radius_bounds_tail():
    radius = theory.response_decay_radius(1e-9)
    assert radius <= 40
    t = np.arange(radius, radius + 30, dtype=float)
    assert np.max(np.abs(theory.response_r(t))) < 1e-9


def test_erfc_against_reference_table():
    for x, want in ERFC_TABLE.items():
        got = theory.erfc(x)
        assert abs(got - want) < 1e-10, f"erfc({x}) = {got}, expected {want}"
        if want != 0.0 and abs(x) <= 10:
            assert abs(got - want) / want < 1e-14


def test_erfc_reflection_identity():
    rng = np.random.default_rng(77)
    x = rng.uniform(-8, 8, size=1000)
    lhs = theory.erfc(-x)
    rhs = 2.0 - theory.erfc(x)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_erfc_edges():
    assert theory.erfc(0.0) == 1.0
    assert theory.erfc(31.0) == 0.0
    assert theory.erfc(np.array([0.0, 1.0])).shape == (2,)


def test_ber_optimal_basics():
    assert abs(theory.ber_optimal(1.0, 1e9) - 0.5) < 1e-9
    # argument P / sqrt(2 sigma^2) = 1
    assert abs(theory.ber_optimal(math.sqrt(2.0), 1.0) - 0.07865) < 5e-6
    bers = [theory.ber_optimal(p, 0.7) for p in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(bers, bers[1:]))
    with pytest.raises(ValueError):
        theory.ber_optimal(1.0, 0.0)


def test_preset_power_and_isi_constants():
    for name, (want_p, want_k) in PRESET_P_K.items():
        ch = STATIC_PRESETS[name]
        assert abs(theory.compute_signal_power(ch) - want_p) < 1e-9
        assert abs(theory.compute_isi_constant(ch) - want_k) < 1e-9


def test_ber_suboptimal_frozen_values():
    r0 = theory.R_PEAK
    for (name, db), want in BER_SUB_TABLE.items():
        ch = STATIC_PRESETS[name]
        sigma_w = r0 / math.sqrt(2.0 * 10 ** (db / 10))
        got = theory.ber_suboptimal(ch, sigma_w)
        assert abs(got - want) / want < 1e-9, f"{name}@{db}dB: {got} vs {want}"


def test_ber_suboptimal_dominates_optimal():
    r0 = theory.R_PEAK
    for name in ("static2", "static3"):
        ch = STATIC_PRESETS[name]
        P = theory.compute_signal_power(ch)
        for db in np.arange(0.0, 14.5, 0.5):
            sigma_w = r0 / math.sqrt(2.0 * 10 ** (db / 10))
            sub = theory.ber_suboptimal(ch, sigma_w)
            opt = theory.ber_optimal(P, sigma_w)
            assert sub >= opt
            assert 0.0 < sub <= 0.5


def test_ber_curves_monotone_in_ebn0():
    r0 = theory.R_PEAK
    ch = STATIC_PRESETS["static2"]
    P = theory.compute_signal_power(ch)
    db = np.arange(0.0, 14.25, 0.25)
    sig = r0 / np.sqrt(2.0 * 10 ** (db / 10))
    opt = np.array([theory.ber_optimal(P, s) for s in sig])
    sub = np.array([theory.ber_suboptimal(ch, s) for s in sig])
    assert np.all(np.diff(opt) <= 0)
    assert np.all(np.diff(sub) <= 0)


def _near_zero_isi_channel(scale=1.0):
    # second path at tau = 0.5 with gain sqrt(2) cancels the first path's
    # residual-ISI term exactly; scaling the gain reintroduces a controlled
    # amount of K
    return MultipathSpec((0.0, 0.5), (1.0, math.sqrt(2.0) * scale))


def test_ber_suboptimal_small_isi_limit():
    sigma_w = 0.5
    ch0 = _near_zero_isi_channel()
    assert abs(theory.compute_isi_constant(ch0)) < 1e-8
    P0 = theory.compute_signal_power(ch0)
    assert theory.ber_suboptimal(ch0, sigma_w) == theory.ber_optimal(P0, sigma_w)

    # perturb the cancelling gain to dial in small but nonzero K values;
    # the distance from the optimal formula must shrink as K does
    diffs = []
    for eps in (1e-2, 1e-4):
        ch = _near_zero_isi_channel(1.0 + eps)
        K = theory.compute_isi_constant(ch)
        assert abs(K) > 1e-8
        P = theory.compute_signal_power(ch)
        diffs.append(abs(theory.ber_suboptimal(ch, sigma_w)
                         - theory.ber_optimal(P, sigma_w)))
    assert diffs[1] < diffs[0] / 50


def test_ber_suboptimal_rejects_bad_inputs():
    # both paths inverted: the decision-point signal P is negative
    with pytest.raises(ValueError, match="P must be positive"):
        theory.ber_suboptimal(MultipathSpec((0.0, 1.0), (-1.0, -0.5)), 0.4)
    with pytest.raises(ValueError, match="sigma_w must be positive"):
        theory.ber_suboptimal(STATIC_PRESETS["static2"], 0.0)
