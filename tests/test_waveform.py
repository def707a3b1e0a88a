"""Pulse shape, synthesis, hybrid oscillator, and conjugacy checks."""

import math

import numpy as np
import pytest

from chaosmodem import waveform as wf
from oracles import basis_reference

LN2 = math.log(2.0)


def test_basis_frozen_values():
    assert wf.eval_basis(0.0) == 0.5
    assert abs(wf.eval_basis(0.5) - (1.0 + 1.0 / math.sqrt(2.0))) < 1e-12
    assert wf.eval_basis(1.0) == 0.0
    assert wf.eval_basis(2.7) == 0.0
    # interior zeros of the anticipatory tail
    assert abs(wf.eval_basis(-0.2674869133)) < 1e-9
    assert abs(wf.eval_basis(-0.7674869133)) < 1e-9
    # peak sits at mid-symbol
    t = np.arange(-2.0, 1.0, 1e-4)
    vals = wf.eval_basis(t)
    assert abs(t[np.argmax(np.abs(vals))] - 0.5) < 1e-3
    # a scalar comes back as a float from the same formula as the array
    assert type(wf.eval_basis(-0.3)) is float
    assert wf.eval_basis(-0.3) == wf.eval_basis(np.array([-0.3]))[0]


def test_basis_matches_reference_grid():
    t = np.linspace(-12.0, 2.0, 40001)
    assert np.max(np.abs(wf.eval_basis(t) - basis_reference(t))) < 1e-14


def test_basis_smooth_at_branch_points():
    # value continuity through both branch boundaries
    for t0 in (0.0, 1.0):
        below = wf.eval_basis(math.nextafter(t0, -1.0))
        above = wf.eval_basis(math.nextafter(t0, 2.0))
        assert abs(below - above) < 1e-9
    # the derivative vanishes at both boundaries; one-sided differences
    h = 1e-6
    for t0 in (0.0, 1.0):
        left = (wf.eval_basis(t0 - h) - wf.eval_basis(t0 - 2 * h)) / h
        right = (wf.eval_basis(t0 + 2 * h) - wf.eval_basis(t0 + h)) / h
        assert abs(left) < 1e-4
        assert abs(right) < 1e-4


def test_envelope_bound():
    t = np.arange(-40.0, 1.0, 1.0 / 256.0)
    margin = 5.0 * np.exp(-LN2 * np.abs(t)) - 2.0 * np.abs(wf.eval_basis(t))
    assert margin.min() > 0.0


def test_params_validation():
    p = wf.WaveformParams()
    assert p.n_p == 9
    assert wf.WaveformParams(n_p=9).n_p == 9
    assert wf.WaveformParams(n_p=12).n_p == 12
    with pytest.raises(ValueError, match="n_p >= 9"):
        wf.WaveformParams(n_p=6)
    with pytest.raises(ValueError):
        wf.WaveformParams(n_p=0)


def test_min_truncation_length():
    assert wf.min_truncation_length() == 9
    tighter = wf.min_truncation_length(rel_tol=1e-4)
    assert tighter > 9
    # returned length is minimal for its tolerance
    assert wf._tail_peak_ratio(tighter) < 1e-4
    assert wf._tail_peak_ratio(tighter - 1) >= 1e-4
    with pytest.raises(ValueError):
        wf.min_truncation_length(rel_tol=0.0)


def test_synth_matches_truncated_double_sum():
    rng = np.random.default_rng(1234)
    params = wf.WaveformParams()
    s = rng.choice([-1.0, 1.0], size=64)
    n_c = 8
    x = wf.synth_waveform(s, n_c, params)
    assert x.shape == (64 * n_c,)
    s_ext = np.concatenate([s, np.zeros(params.n_p)])
    ref = np.zeros_like(x)
    for k in range(x.size):
        t = k / n_c
        q = k // n_c
        acc = 0.0
        for m in range(q, q + params.n_p + 1):
            acc += s_ext[m] * float(basis_reference(t - m))
        ref[k] = acc
    assert np.max(np.abs(x - ref)) < 1e-12


def test_synth_truncation_error_scale():
    # against the untruncated superposition the error is set by the
    # discarded tail, well under the pulse peak but clearly nonzero
    rng = np.random.default_rng(99)
    params = wf.WaveformParams()
    s = rng.choice([-1.0, 1.0], size=48)
    n_c = 16
    x = wf.synth_waveform(s, n_c, params)
    t = np.arange(x.size) / n_c
    full = np.zeros_like(x)
    for m, sm in enumerate(s):
        full += sm * basis_reference(t - m)
    err = np.max(np.abs(x - full))
    assert 0.0 < err < 2.5e-3


def test_synth_validation_and_linearity():
    params = wf.WaveformParams()
    with pytest.raises(ValueError):
        wf.synth_waveform([], 8, params)
    with pytest.raises(ValueError):
        wf.synth_waveform([1.0, 0.5, -1.0], 8, params)
    rng = np.random.default_rng(7)
    a = rng.choice([-1.0, 1.0], size=32)
    b = rng.choice([-1.0, 1.0], size=32)
    xa = wf.synth_waveform(a, 8, params)
    xb = wf.synth_waveform(b, 8, params)
    xab = wf.synth_waveform(a + b, 8, params, strict=False)
    assert np.max(np.abs(xab - (xa + xb))) < 1e-12
    x2a = wf.synth_waveform(2.0 * a, 8, params, strict=False)
    assert np.max(np.abs(x2a - 2.0 * xa)) < 1e-12


def test_hybrid_equilibria():
    for x0 in (1.0, -1.0):
        traj = wf.simulate_hybrid(x0, 0.0, 5.0)
        assert np.max(np.abs(traj.x - x0)) == 0.0
        assert np.max(np.abs(traj.x_dot)) == 0.0
        assert traj.event_times.size == 0
        assert np.all(traj.symbols == math.copysign(1.0, x0))
        assert math.isnan(traj.symbol_anchor)


def test_hybrid_validation():
    with pytest.raises(ValueError):
        wf.simulate_hybrid(0.3, 0.0, 10.0, dt=2e-3)
    with pytest.raises(ValueError):
        wf.simulate_hybrid(0.3, 0.0, 0.5)


def test_hybrid_event_structure():
    traj = wf.simulate_hybrid(-0.61, 2.3, 40.0)
    ev_t, ev_x = traj.event_times, traj.event_x
    assert ev_t.size > 60
    # after the first, events arrive every half period
    gaps = np.diff(ev_t)
    assert np.max(np.abs(gaps - 0.5)) < 1e-6
    # events split into switching-capable (|x| < 1) and overshoot (|x| > 1)
    sym_mask = np.abs(ev_x) < 1.0
    assert np.any(sym_mask) and np.any(~sym_mask)
    assert np.min(np.abs(ev_x[~sym_mask])) > 1.0
    # the guard is bipolar and only changes at detected events
    assert np.all(np.abs(traj.s) == 1.0)
    change_idx = np.flatnonzero(np.diff(traj.s) != 0.0)
    change_t = traj.times[change_idx + 1]
    for tc in change_t:
        assert np.min(np.abs(ev_t - tc)) < 1e-9


def test_hybrid_symbol_grid_and_shift_map():
    traj = wf.simulate_hybrid(0.12, -1.7, 40.0)
    sym_mask = np.abs(traj.event_x) < 1.0
    ev_t = traj.event_times[sym_mask]
    ev_x = traj.event_x[sym_mask]
    # switching-capable events sit on an integer-spaced grid
    assert np.max(np.abs(np.diff(ev_t) - 1.0)) < 1e-6
    assert abs(traj.symbol_anchor - ev_t[0]) < 1e-12
    # their states iterate the doubling map x -> 2x - sgn(x)
    pred = 2.0 * ev_x[:-1] - np.sign(ev_x[:-1])
    assert np.max(np.abs(ev_x[1:] - pred)) < 1e-8
    # and each emitted symbol is the sign of the state at its event
    k = np.round(ev_t - traj.symbol_anchor).astype(int)
    inside = k < traj.symbols.size
    assert np.array_equal(traj.symbols[k[inside]], np.sign(ev_x[inside]))


def test_hybrid_state_encodes_future_symbols():
    # the event state is the dyadic expansion of the upcoming symbols:
    # x(event n) = 0.5 * sum_k s_{n+k} 2^{-k}
    traj = wf.simulate_hybrid(-0.61, 2.3, 46.0)
    sym_mask = np.abs(traj.event_x) < 1.0
    ev_t = traj.event_times[sym_mask]
    ev_x = traj.event_x[sym_mask]
    for n in (0, 3, 5):
        k0 = int(round(ev_t[n] - traj.symbol_anchor))
        horizon = traj.symbols.size - k0
        acc = 0.5 * sum(traj.symbols[k0 + k] * 2.0 ** (-k)
                        for k in range(min(horizon, 45)))
        assert abs(ev_x[n] - acc) < 1e-8


def test_hybrid_reconstruction_rms():
    # the integrated oscillator, re-synthesized from its own emitted
    # symbols, matches itself after the transient settles
    params = wf.WaveformParams()
    for x0, v0 in ((0.37, 0.0), (-0.61, 2.3), (0.12, -1.7)):
        traj = wf.simulate_hybrid(x0, v0, 40.0)
        a = traj.symbol_anchor
        mask = (traj.times >= a + 6.0) & (traj.times <= a + 26.0)
        tt = traj.times[mask]
        recon = np.zeros_like(tt)
        for k, sk in enumerate(traj.symbols):
            recon += sk * basis_reference(tt - a - k)
        rms = math.sqrt(float(np.mean((traj.x[mask] - recon) ** 2)))
        assert rms < 1e-3


def test_hybrid_step_size_insensitive():
    t1 = wf.simulate_hybrid(0.37, 0.4, 20.0, dt=1e-3)
    t2 = wf.simulate_hybrid(0.37, 0.4, 20.0, dt=5e-4)
    assert abs(t1.symbol_anchor - t2.symbol_anchor) < 1e-6
    n = min(t1.symbols.size, t2.symbols.size)
    assert np.array_equal(t1.symbols[:n], t2.symbols[:n])


def test_conjugacy_report():
    rep = wf.check_conjugacy()
    assert rep.cond1 is True
    assert rep.cond2_margin > 0.0
    assert abs(rep.integral_inside - 2.4312) < 1e-3
    assert abs(rep.integral_outside - 0.4642) < 1e-3
    # trapezoid at 1e-4 resolves the frozen quadrature values closely
    assert abs(rep.integral_inside - 2.43136012421675) < 1e-6
    assert abs(rep.integral_outside - 0.464232635678332) < 1e-6
    assert rep.cond3 is True
    with pytest.raises(ValueError):
        wf.check_conjugacy(grid_step=5e-3)

