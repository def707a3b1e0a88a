"""Transmitter chain: framing and constellation mapping.

Bits are mapped to bipolar symbols, QPSK split across in-phase/quadrature
rails, and a frame is the training rails followed by its payload's rails;
``build_frame`` frames one payload or a block of them, and the sweeps
frame every block through it. Shaping at n_c samples per symbol belongs
to the pulse of each modem (see ``harness.pulse_for``).

The QPSK table is q = 1 - 2*b1, i = 1 - 2*(b1 xor b2) for each consecutive
bit pair (b1, b2); all four rows are pinned by tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# seed of the stored pseudo-noise training pattern
_PN_SEED = 2026


def qpsk_map(bits) -> Tuple[np.ndarray, np.ndarray]:
    """Map consecutive bit pairs to bipolar (i, q) rails."""
    b = np.asarray(bits)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("bit sequence must be 1-d and non-empty")
    if not ((b == 0) | (b == 1)).all():
        raise ValueError("bits must be 0 or 1")
    if b.size % 2:
        raise ValueError(f"QPSK needs an even number of bits, got {b.size}")
    b1, b2 = b.astype(np.int64).reshape(-1, 2).T
    q = 1.0 - 2.0 * b1
    i = 1.0 - 2.0 * (b1 ^ b2)
    return i, q


def gen_training(n_bits: int) -> np.ndarray:
    """``n_bits`` training bits: the stored balanced pseudo-noise pattern
    (exact half/half up to one bit), the same on every call."""
    bits = np.zeros(n_bits, dtype=np.int64)
    bits[: n_bits // 2] = 1
    return np.random.default_rng(_PN_SEED).permutation(bits)


def build_frame(data_bits, train) -> np.ndarray:
    """The rails of frames with payloads ``data_bits``, shape (..., n_bits),
    n_bits even: the training rails ``train``, shape (2, n_train), then
    the payload's QPSK rails; shape (..., 2, n_train + n_bits // 2)."""
    bits = np.atleast_1d(data_bits)
    if bits.shape[-1] % 2:
        raise ValueError(f"QPSK framing needs an even payload, got "
                         f"{bits.shape[-1]} bits")
    rails = np.moveaxis(np.reshape(qpsk_map(bits.ravel()),
                                   (2, *bits.shape[:-1], -1)), 0, -2)
    return np.concatenate([np.broadcast_to(
        train, rails.shape[:-1] + train.shape[1:]), rails], axis=-1)
