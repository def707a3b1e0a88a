"""Framing, constellation mapping, and shaping."""

import numpy as np
import pytest

from chaosmodem import harness as H
from chaosmodem import txchain as tx
from chaosmodem.waveform import N_P, synth_waveform
from oracles import RESPONSE_TABLE, pn_bits

# (b1, b2) -> (i, q), the QPSK table of the module docstring
QPSK_TABLE = {(0, 0): (1.0, 1.0), (0, 1): (-1.0, 1.0),
              (1, 0): (-1.0, -1.0), (1, 1): (1.0, -1.0)}


def test_qpsk_map_pinned_example():
    i, q = tx.qpsk_map([1, 0, 1, 1, 0, 1, 0, 0])
    assert np.array_equal(i, [-1, 1, -1, 1])
    assert np.array_equal(q, [-1, -1, 1, 1])
    i0, q0 = tx.qpsk_map([0, 0])
    assert np.array_equal(i0, [1]) and np.array_equal(q0, [1])


def test_qpsk_round_trip_exhaustive():
    # every 8-bit word maps pair by pair through the table, and no two
    # words share rails, so the map is invertible
    images = set()
    for value in range(256):
        bits = [(value >> k) & 1 for k in range(8)]
        i, q = tx.qpsk_map(bits)
        want = [QPSK_TABLE[pair] for pair in zip(bits[0::2], bits[1::2])]
        assert list(zip(i, q)) == want
        images.add((tuple(i), tuple(q)))
    assert len(images) == 256


def test_qpsk_validation():
    with pytest.raises(ValueError):
        tx.qpsk_map([0, 1, 1])
    with pytest.raises(ValueError):
        tx.qpsk_map([0, 2])
    with pytest.raises(ValueError):
        tx.qpsk_map([])
    for bad in (0.5, -1, np.nan):
        with pytest.raises(ValueError, match="0 or 1"):
            tx.qpsk_map([0, bad])
    # bools and whole floats are bits
    want = tx.qpsk_map([0, 1, 1, 1])
    for bits in ([False, True, True, True], [0.0, 1.0, 1.0, 1.0]):
        assert all(np.array_equal(a, b) for a, b in zip(tx.qpsk_map(bits), want))


def test_stored_pn_training():
    a = tx.gen_training(256)
    assert np.array_equal(a, tx.gen_training(256))
    # the stored pattern is the one seeded with 2026
    assert np.array_equal(a, pn_bits(256, 2026))
    assert abs((1.0 - 2.0 * a).sum()) <= 1.0
    # odd length still balances to within one bit
    odd = tx.gen_training(127)
    assert abs((1.0 - 2.0 * odd).sum()) <= 1.0


def test_build_frame_qpsk():
    rng = np.random.default_rng(8)
    data = rng.integers(0, 2, size=(3, 3840))
    train = np.stack(tx.qpsk_map(tx.gen_training(256)))
    frame = tx.build_frame(data[0], train)
    # one frame is the rails of the training bits followed by the payload
    want = np.stack(tx.qpsk_map(np.concatenate([tx.gen_training(256),
                                                data[0]])))
    assert frame.shape == (2, 2048)
    assert frame.tobytes() == want.tobytes()
    # a block frames each row as that row alone
    block = tx.build_frame(data, train)
    assert block.shape == (3, 2, 2048)
    for row, bits in zip(block, data):
        assert row.tobytes() == tx.build_frame(bits, train).tobytes()
    # an odd payload would share a QPSK pair with the next frame's, so
    # it fails also when the block's bit count is even
    for payload in (data[0, :-1], data[:2, :-1]):
        with pytest.raises(ValueError, match="even"):
            tx.build_frame(payload, train)
    with pytest.raises(ValueError, match="0 or 1"):
        tx.build_frame(np.full((2, 4), 2), train)


def _shape(pulse, rail):
    """A rail as a frame shapes it: with the pulse's tail appended."""
    return pulse.synth(np.concatenate([rail, pulse.tail]))


def test_shape_chaotic_matches_synthesis():
    pulse = H.pulse_for("chaotic", 8)
    i = _shape(pulse, np.ones(4))
    assert i.shape == ((4 + N_P) * 8,)
    pad = np.resize(np.array([1.0, -1.0]), N_P)
    ref = synth_waveform(np.concatenate([np.ones(4), pad]), 8)
    assert np.array_equal(i, ref)
    # negating a rail negates its samples apart from the shared tail pad
    refq = synth_waveform(np.concatenate([-np.ones(4), pad]), 8)
    assert np.array_equal(_shape(pulse, -np.ones(4)), refq)
    with pytest.raises(ValueError):
        H.pulse_for("gaussian", 8)


def test_shape_shift_invariance():
    pulse = H.pulse_for("chaotic", 8)
    rng = np.random.default_rng(17)
    core = rng.choice([-1.0, 1.0], size=24)
    a = np.concatenate([core, [1.0, 1.0]])
    b = np.concatenate([[1.0], core, [1.0]])
    ia = _shape(pulse, a)
    ib = _shape(pulse, b)
    # one-symbol input delay shows up as an n_c-sample output delay; the
    # anticipatory pulse reads N_P symbols ahead, so compare only symbols
    # whose lookahead stays inside the shift-matched region
    n_ok = 24 + 2 - N_P - 1
    assert np.max(np.abs(ib[8:8 + n_ok * 8] - ia[:n_ok * 8])) < 1e-12


def test_shape_energy_per_symbol():
    # long-run average symbol energy matches the pulse autocorrelation
    # peak times the oversampling rate
    n_c = 8
    rng = np.random.default_rng(123)
    syms = rng.choice([-1.0, 1.0], size=10_000)
    x = synth_waveform(syms, n_c)
    mean_energy = float(np.sum(x * x)) / syms.size
    expect = n_c * RESPONSE_TABLE[0.0]
    assert abs(mean_energy - expect) / expect < 0.02
