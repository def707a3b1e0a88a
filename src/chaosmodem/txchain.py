"""Transmitter chain: framing and constellation mapping.

Bits are framed as training followed by payload and mapped to bipolar
symbols, QPSK split across in-phase/quadrature rails. Shaping at n_c
samples per symbol belongs to the pulse of each modem (see
``harness.pulse_for``).

The QPSK table is q = 1 - 2*b1, i = 1 - 2*(b1 xor b2) for each consecutive
bit pair (b1, b2); all four rows are pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

_DEFAULT_PN_SEED = 2026


@dataclass(frozen=True)
class FrameLayout:
    n_training: int
    n_data: int

    def __post_init__(self):
        if not (isinstance(self.n_training, (int, np.integer)) and self.n_training > 0):
            raise ValueError(f"n_training must be a positive integer, got {self.n_training}")
        if not (isinstance(self.n_data, (int, np.integer)) and self.n_data > 0):
            raise ValueError(f"n_data must be a positive integer, got {self.n_data}")

    @property
    def total(self) -> int:
        return self.n_training + self.n_data


@dataclass(frozen=True)
class SymbolFrame:
    """Mapped bipolar rails plus the layout they came from; each rail
    carries half the frame bits."""

    i_syms: np.ndarray
    q_syms: np.ndarray
    layout: FrameLayout

    def __post_init__(self):
        i = np.asarray(self.i_syms, dtype=float)
        q = np.asarray(self.q_syms, dtype=float)
        object.__setattr__(self, "i_syms", i)
        object.__setattr__(self, "q_syms", q)
        if i.shape != q.shape or i.ndim != 1:
            raise ValueError("i/q rails must be 1-d and equally long")
        for rail in (i, q):
            if not np.all(np.isin(rail, (-1.0, 1.0))):
                raise ValueError("symbol values must be -1 or +1")
        if 2 * i.size != self.layout.total:
            raise ValueError(
                f"rails of {i.size} symbols do not carry the layout's "
                f"{self.layout.total} bits at two bits per symbol")

    @property
    def n_symbols(self) -> int:
        return int(self.i_syms.size)


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


def gen_training(n_bits: int, seed: Optional[int] = None) -> np.ndarray:
    """``n_bits`` training bits: a seeded balanced pseudo-noise pattern
    (exact half/half up to one bit), reproducible from the seed alone."""
    rng = np.random.default_rng(_DEFAULT_PN_SEED if seed is None else seed)
    bits = np.zeros(n_bits, dtype=np.int64)
    bits[: n_bits // 2] = 1
    return rng.permutation(bits)


def build_frame(data_bits, layout: FrameLayout,
                seed: Optional[int] = None) -> SymbolFrame:
    """Assemble training + payload bits and map them onto symbol rails."""
    data = _check_bits(data_bits)
    if data.size != layout.n_data:
        raise ValueError(
            f"payload has {data.size} bits but the layout expects {layout.n_data}")
    if layout.n_training % 2 or layout.n_data % 2:
        raise ValueError("QPSK framing needs even training and data bit counts")
    train = gen_training(layout.n_training, seed)
    i, q = qpsk_map(np.concatenate([train, data]))
    return SymbolFrame(i, q, layout)
