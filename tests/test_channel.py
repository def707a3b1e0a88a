"""Multipath propagation and noise calibration checks."""

import numpy as np
import pytest

from chaosmodem.channel import (
    STATIC_PRESETS,
    QuasiStaticModel,
    calibrate_noise,
    draw_gamma,
    gains_from_gamma,
    get_preset,
    propagate,
)


def test_gains_from_gamma_values():
    g = gains_from_gamma(0.6, 3)
    np.testing.assert_allclose(g, [1.0, 0.5488, 0.3012], atol=1e-4)
    assert g.shape == (3,) and g[0] == 1.0
    assert g.tobytes() == np.exp(-0.6 * np.array([0.0, 1.0, 2.0])).tobytes()
    far = gains_from_gamma(50.0, 3)
    assert far[0] == 1.0 and np.all(far[1:] < 1e-20)
    with pytest.raises(ValueError):
        gains_from_gamma(0.0, 2)


def test_propagate_single_path_identity():
    x = np.arange(10.0)
    np.testing.assert_array_equal(propagate(x, np.ones(1), 8), x)


def test_propagate_impulse_two_path():
    spec = gains_from_gamma(0.6, 2)
    imp = np.zeros(16)
    imp[0] = 1.0
    out = propagate(imp, spec, 8)
    assert out.size == 16 + 8
    assert out[0] == 1.0
    assert abs(out[8] - 0.5488) < 1e-4
    others = np.delete(out, [0, 8])
    assert np.all(others == 0.0)


def test_propagate_missing_path_adds_nothing():
    # path d runs d * n_c samples late; a zero gain is a missing path
    rng = np.random.default_rng(6)
    x = rng.normal(size=20)
    out = propagate(x, np.array([0.0, 0.0, 0.5]), 3)
    assert out.size == 20 + 6
    assert np.all(out[:6] == 0.0)
    np.testing.assert_array_equal(out[6:], 0.5 * x)


def test_propagate_linear_and_shift_invariant():
    rng = np.random.default_rng(5)
    spec = gains_from_gamma(0.6, 3)
    a = rng.normal(size=64)
    b = rng.normal(size=64)
    np.testing.assert_allclose(propagate(a + b, spec, 4),
                               propagate(a, spec, 4) + propagate(b, spec, 4),
                               atol=1e-12)
    shifted = np.concatenate([np.zeros(5), a])
    out_shift = propagate(shifted, spec, 4)
    out_plain = propagate(a, spec, 4)
    np.testing.assert_allclose(out_shift[5:], out_plain, atol=0)
    assert np.all(out_shift[:5] == 0.0)


def test_propagate_batch_equals_rows():
    # per-row gains, one row with a missing path, broadcast over two
    # streams per row, give each row's 1-d call bitwise
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 2, 40))
    gains = np.array([gains_from_gamma(0.4, 3), [1.0, 0.0, 0.3],
                      gains_from_gamma(0.8, 3)])
    out = propagate(x, gains[:, None], 2)
    assert out.shape == (3, 2, 44)
    for stream, row, g in zip(x, out, gains):
        for s, o in zip(stream, row):
            assert o.tobytes() == propagate(s, g, 2).tobytes()
    # one channel for every stream
    shared = propagate(x, gains[1], 2)
    for s, o in zip(x.reshape(-1, 40), shared.reshape(-1, 44)):
        assert o.tobytes() == propagate(s, gains[1], 2).tobytes()


def test_calibrate_noise():
    sigma = calibrate_noise(0.0, 1.0)
    assert abs(sigma ** 2 - 0.5) < 1e-12
    halved = calibrate_noise(3.010299956639812, 1.0)
    assert abs(halved ** 2 - 0.25) < 1e-12
    with pytest.raises(ValueError):
        calibrate_noise(0.0, 0.0)


def test_draw_gamma_distribution():
    model = QuasiStaticModel(0.3, 0.9, 2)
    rng = np.random.default_rng(99)
    draws = np.array([draw_gamma(model, rng) for _ in range(100_000)])
    assert np.all((draws >= 0.3) & (draws <= 0.9))
    assert abs(draws.mean() - 0.6) < 0.005
    assert (draw_gamma(model, np.random.default_rng(42))
            == draw_gamma(model, np.random.default_rng(42)))
    with pytest.raises(ValueError):
        QuasiStaticModel(0.9, 0.3, 2)


def test_presets():
    st2 = get_preset("static2")
    assert st2.tobytes() == gains_from_gamma(0.6, 2).tobytes()
    st3 = get_preset("static3")
    assert st3.tobytes() == gains_from_gamma(0.6, 3).tobytes()
    assert get_preset("quasi") == get_preset("quasi2")
    assert get_preset("quasi2").n_paths == 2
    assert get_preset("quasi3") == QuasiStaticModel(0.3, 0.9, 3)
    with pytest.raises(ValueError):
        get_preset("rayleigh")


def test_presets_are_read_only():
    # every sweep of a process shares the static presets
    for gains in STATIC_PRESETS.values():
        with pytest.raises(ValueError, match="read-only"):
            gains[0] = 0.5
    assert STATIC_PRESETS["static2"][0] == 1.0
