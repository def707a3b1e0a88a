"""Chaotic basis pulse, waveform synthesis, and the hybrid oscillator.

The transmit pulse p solves the matched pair of exponential/oscillatory
branches

    t < 0:       (1 - e^-beta) e^{beta t} (cos omega t - (beta/omega) sin omega t)
    0 <= t < 1:  1 - e^{beta (t - 1)} (cos omega t - (beta/omega) sin omega t)
    t >= 1:      0

with beta = ln 2 and omega = 2*pi fixed as BETA and OMEGA; the closed
forms in `theory` are derived from the same two. A bipolar symbol stream
s_m shaped by p superposes into x(t) = sum_m s_m p(t - m); the same
waveform is generated by a self-excited second-order oscillator whose
drive sign latches at derivative zero crossings. Between two crossings
the oscillator is linear with constant coefficients, so `simulate_hybrid`
solves it exactly, piece by piece (Corron, Blakely & Stahl, "A matched
filter for chaos", Chaos 20, 023123, 2010), and the two constructions can
be compared without shared code paths. `simulate_hybrid` samples on a
fixed grid of HYBRID_DT = 1e-3 symbol periods, and ``check_conjugacy``
integrates on one of CONJUGACY_GRID_STEP = 1e-4.

Because p(t) is nonzero for all t < 1, synthesis must truncate its left
tail, at N_P symbol periods: the shortest truncation whose discarded tail
stays below TRUNCATION_TOL = 1e-3 of the pulse peak. The shaping filter
is then a cached, read-only tap array that depends on n_c only,
``shaping_taps``, as the RRC comparator's is ``baseline.rrc_taps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BETA = math.log(2.0)
OMEGA = 2.0 * math.pi

_VALIDATION_GRID_STEP = 1.0 / 512.0
_VALIDATION_T_MIN = -40.0

# the largest discarded tail, relative to the pulse peak, that N_P allows
TRUNCATION_TOL = 1e-3
# output grid of simulate_hybrid and quadrature grid of check_conjugacy,
# in symbol periods
HYBRID_DT = 1e-3
CONJUGACY_GRID_STEP = 1e-4


def _tail_peak_ratios(n_max: int) -> np.ndarray:
    """max |p(t)| over the grid t < -n_p, relative to the global peak, for
    n_p = 0..n_max - 1. The grid is evaluated once: the maxima over its
    unit intervals [k, k + 1), accumulated from the grid's start, give
    every tail's maximum."""
    grid = np.arange(_VALIDATION_T_MIN, 1.0, _VALIDATION_GRID_STEP)
    units = np.abs(eval_basis(grid)).reshape(
        -1, round(1.0 / _VALIDATION_GRID_STEP)).max(axis=1)
    # head[k]: the maximum over the first k unit intervals, t < T_MIN + k
    head = np.maximum.accumulate(np.concatenate([[0.0], units]))
    below = np.maximum(-int(_VALIDATION_T_MIN) - np.arange(n_max), 0)
    return head[below] / head[-1]


def min_truncation_length() -> int:
    """Smallest truncation length whose discarded tail stays below
    ``TRUNCATION_TOL`` times the pulse peak (grid-measured)."""
    below = np.flatnonzero(_tail_peak_ratios(64)[1:] < TRUNCATION_TOL)
    return int(below[0]) + 1


def eval_basis(t) -> np.ndarray:
    """Transmit pulse p(t), elementwise: an array of t in, an array out."""
    t = np.asarray(t, dtype=float)
    c = np.cos(OMEGA * t) - (BETA / OMEGA) * np.sin(OMEGA * t)
    left = (1.0 - math.exp(-BETA)) * np.exp(BETA * t) * c
    mid = 1.0 - np.exp(BETA * (t - 1.0)) * c
    return np.where(t >= 1.0, 0.0, np.where(t < 0.0, left, mid))


# the left tail synthesis keeps, in symbol periods (9)
N_P = min_truncation_length()


def synth_waveform(symbols, n_c: int) -> np.ndarray:
    """Shape a symbol stream at n_c samples per symbol.

    Sample k (at t = k/n_c) is sum over m of s_m p(t - m), truncated to the
    current and next N_P symbols; symbols beyond the end of the stream are
    taken as zero. The sum is an FIR over the zero-stuffed stream whose
    taps are p on the grid -N_P <= t < 1. Shaping is linear, so any real
    symbol values are shaped, not only +-1.
    """
    taps = shaping_taps(n_c)
    s = np.asarray(symbols, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("symbols must be a non-empty 1-d sequence")
    lead = taps.size - n_c  # N_P * n_c
    up = np.zeros(s.size * n_c)
    up[::n_c] = s
    return np.convolve(up, taps)[lead:lead + up.size]


@lru_cache(maxsize=None, typed=True)  # so 8.0 fails the check, not reuses 8
def shaping_taps(n_c: int) -> np.ndarray:
    """p on the grid -N_P <= t < 1 at n_c samples per symbol: the shaping
    FIR, and reversed, the matched filter. Read-only, because every caller
    shares it."""
    if not (isinstance(n_c, (int, np.integer)) and n_c >= 2):
        raise ValueError(f"oversampling rate must be an integer >= 2, got {n_c}")
    taps = eval_basis(np.arange(-N_P * n_c, n_c) / n_c)
    taps.flags.writeable = False
    return taps


@dataclass
class HybridTrajectory:
    """Oscillator path with its guard signal and emitted symbols.

    ``times`` merges the uniform output grid with the guard events, so it
    is strictly increasing but not uniform; at an event the guard has
    already relatched. ``symbols`` holds the guard value over each unit
    interval of the symbol grid anchored at ``symbol_anchor`` (the first
    switching-capable event; NaN if the run never produced one, e.g. from
    an equilibrium start).
    """

    times: np.ndarray
    x: np.ndarray
    x_dot: np.ndarray
    s: np.ndarray
    symbols: np.ndarray
    symbol_anchor: float
    event_times: np.ndarray
    event_x: np.ndarray


def _segment(a, v, tau):
    """x - s and x_dot at tau into a segment that starts from x - s = a and
    x_dot = v: x - s = e^{beta tau} (a cos omega tau + c sin omega tau) with
    c = (v - beta a) / omega."""
    c = (v - BETA * a) / OMEGA
    q = BETA * c - OMEGA * a
    g, co, si = np.exp(BETA * tau), np.cos(OMEGA * tau), np.sin(OMEGA * tau)
    return g * (a * co + c * si), g * (v * co + q * si)


def simulate_hybrid(x0: float, xdot0: float,
                    duration: float) -> HybridTrajectory:
    """Solve the self-excited oscillator with guard latching exactly.

    With the drive sign s held, x'' - 2 beta x' + (omega^2 + beta^2)(x - s)
    = 0 is linear with constant coefficients, so each segment between
    guard events is the closed form of ``_segment``. An event is a zero
    crossing of x_dot, where s relatches to sgn(x) (and is kept at x = 0).
    The first one after t = 0 follows from one atan2; t = 0 itself is no
    event, even when x_dot0 = 0. Every later segment starts at rest, so
    its event comes exactly half a period later, at x - s -> -sqrt(2)
    (x - s). x, x_dot and s are evaluated on the uniform ``HYBRID_DT``
    grid over [0, duration], merged with the events. The solution shares
    no code with the superposition synthesis, which is the point: the two
    are compared in tests as independent constructions of the same
    waveform.
    """
    if duration < 1:
        raise ValueError(f"duration must be >= 1 symbol period, got {duration}")
    half = math.pi / OMEGA

    s = 1.0 if x0 == 0.0 else math.copysign(1.0, x0)
    a, v = float(x0) - s, float(xdot0)
    # segment k: guard, start offset x - s and start velocity
    segs = [(s, a, v)]
    # x_dot is proportional to cos(omega tau - atan2(q, v)), q as in _segment
    q = BETA * (v - BETA * a) / OMEGA - OMEGA * a
    first = (math.atan2(q, v) + 0.5 * math.pi) % math.pi / OMEGA or half
    ev_t, ev_x = [], []
    # at rest on an equilibrium (a = v = 0), no event ever comes
    while (a or v) and first + half * len(ev_t) < duration:
        x = s + float(_segment(a, v, half if ev_t else first)[0])
        ev_t.append(first + half * len(ev_t))
        ev_x.append(x)
        if x != 0.0:
            s = math.copysign(1.0, x)
        a, v = x - s, 0.0
        segs.append((s, a, v))
    ev_t, ev_x = np.array(ev_t), np.array(ev_x)

    grid = np.arange(math.ceil(duration / HYBRID_DT)) * HYBRID_DT
    times = np.union1d(np.append(grid[grid < duration], duration), ev_t)
    seg = np.searchsorted(ev_t, times, side="right")
    seg_s, seg_a, seg_v = np.array(segs).T
    y, x_dot = _segment(seg_a[seg], seg_v[seg],
                        times - np.append(0.0, ev_t)[seg])
    ss = seg_s[seg]

    # symbol grid: events where the state is inside the switching band
    sym_mask = np.abs(ev_x) < 1.0
    if np.any(sym_mask):
        anchor = float(ev_t[sym_mask][0])
        # guard value over [anchor + k, anchor + k + 1): s just after the
        # symbol event, before the intervening half event
        probes = anchor + np.arange(math.floor(duration - anchor)) + 0.25
        symbols = seg_s[np.searchsorted(ev_t, probes, side="right")]
    else:
        anchor = math.nan
        symbols = np.full(int(duration), s)
    return HybridTrajectory(times, ss + y, x_dot, ss, symbols, anchor,
                            ev_t, ev_x)


@dataclass(frozen=True)
class ConjugacyReport:
    """Numeric check of the waveform/symbol equivalence conditions."""

    cond1: bool
    cond2_margin: float
    integral_inside: float
    integral_outside: float
    cond3: bool

    @property
    def passed(self) -> bool:
        return self.cond1 and self.cond2_margin > 0 and self.cond3


def check_conjugacy() -> ConjugacyReport:
    """Evaluate the three conjugacy conditions on the uniform
    ``CONJUGACY_GRID_STEP`` grid.

    cond1: waveforms of distinct symbol sequences differ except on an
    isolated-zero set (sampled check over seeded random pairs).
    cond2: 2|p(t)| stays below the envelope 5 e^{-beta |t|}; the report
    carries the minimum margin over the grid.
    cond3: the |p| mass concentrated in the two symbol periods bracketing
    the pulse (counted with the superposition's double weight,
    2*int_{-1}^{1} |p|) exceeds the mass spread over the anticipatory tail
    window int_{-8}^{0} |p|, so a symbol's own period dominates what leaks
    ahead of it.
    """
    def abs_p(lo, hi):
        n = int(round((hi - lo) / CONJUGACY_GRID_STEP))
        t = lo + np.arange(n + 1) * CONJUGACY_GRID_STEP
        return t, np.abs(eval_basis(t))

    t_in, v_in = abs_p(-1.0, 1.0)
    integral_inside = 2.0 * float(np.trapezoid(v_in, dx=CONJUGACY_GRID_STEP))
    t_out, v_out = abs_p(-8.0, 0.0)
    integral_outside = float(np.trapezoid(v_out, dx=CONJUGACY_GRID_STEP))

    t_env = np.arange(_VALIDATION_T_MIN, 1.0, CONJUGACY_GRID_STEP)
    margin = 5.0 * np.exp(-BETA * np.abs(t_env)) - 2.0 * np.abs(
        eval_basis(t_env))
    cond2_margin = float(margin.min())

    rng = np.random.default_rng(20211)
    cond1 = True
    n_sym = 12
    for _ in range(6):
        a = rng.choice([-1.0, 1.0], size=n_sym)
        b = a.copy()
        n_flip = int(rng.integers(1, 4))
        flips = rng.choice(n_sym, size=n_flip, replace=False)
        b[flips] = -b[flips]
        # the pulse vanishes one period past each symbol, so the waveforms
        # can only differ left of the last flipped position
        t_grid = np.arange(0.0, flips.max() + 1.0,
                           10 * CONJUGACY_GRID_STEP)
        diff = np.abs(_superpose(a, t_grid) - _superpose(b, t_grid))
        # distinct almost everywhere: equality only near isolated zeros
        if np.mean(diff < 1e-9) > 0.02 or diff.max() < 1e-6:
            cond1 = False
    return ConjugacyReport(cond1, cond2_margin, integral_inside,
                           integral_outside,
                           integral_inside > integral_outside)


def _superpose(symbols: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direct evaluation of sum_m s_m p(t - m) at arbitrary times."""
    acc = np.zeros_like(t, dtype=float)
    for m, sm in enumerate(symbols):
        acc += sm * eval_basis(t - m)
    return acc
