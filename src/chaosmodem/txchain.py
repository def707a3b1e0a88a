"""Transmitter chain: framing and constellation mapping.

Bits are framed as training followed by payload and mapped to bipolar
symbols, QPSK split across in-phase/quadrature rails. Shaping at n_c
samples per symbol belongs to the pulse of each modem (see
``harness.pulse_for``).

The QPSK table is q = 1 - 2*b1, i = 1 - 2*(b1 xor b2) for each consecutive
bit pair (b1, b2); all four rows are pinned by tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# seed of the stored pseudo-noise training pattern
_PN_SEED = 2026


def _check_bits(bits) -> np.ndarray:
    b = np.asarray(bits)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("bit sequence must be 1-d and non-empty")
    if not ((b == 0) | (b == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return b.astype(np.int64)


def qpsk_map(bits) -> Tuple[np.ndarray, np.ndarray]:
    """Map consecutive bit pairs to bipolar (i, q) rails."""
    b = _check_bits(bits)
    if b.size % 2:
        raise ValueError(f"QPSK needs an even number of bits, got {b.size}")
    b1 = b[0::2]
    b2 = b[1::2]
    q = 1.0 - 2.0 * b1
    i = 1.0 - 2.0 * (b1 ^ b2)
    return i, q


def gen_training(n_bits: int) -> np.ndarray:
    """``n_bits`` training bits: the stored balanced pseudo-noise pattern
    (exact half/half up to one bit), the same on every call."""
    bits = np.zeros(n_bits, dtype=np.int64)
    bits[: n_bits // 2] = 1
    return np.random.default_rng(_PN_SEED).permutation(bits)


def build_frame(data_bits, n_training: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (i, q) rails of ``n_training`` training bits followed by the
    payload. Both counts must be even, so that no QPSK pair straddles the
    boundary."""
    data = _check_bits(data_bits)
    if n_training % 2 or data.size % 2:
        raise ValueError(
            f"QPSK framing needs even training and payload bit counts, "
            f"got {n_training} and {data.size}")
    return qpsk_map(np.concatenate([gen_training(n_training), data]))
