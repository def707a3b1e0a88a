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
drive sign latches at derivative zero crossings, and `simulate_hybrid`
integrates that oscillator directly so the two constructions can be
compared without shared code paths.

Because p(t) is nonzero for all t < 1, synthesis must truncate its left
tail; the truncation length n_p is the one field of WaveformParams and is
validated against the pulse envelope so discarded mass stays below one
part in 10^3 of the pulse peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

BETA = math.log(2.0)
OMEGA = 2.0 * math.pi

_VALIDATION_GRID_STEP = 1.0 / 512.0
_VALIDATION_T_MIN = -40.0


@lru_cache(maxsize=32)
def _tail_peak_ratio(n_p: int) -> float:
    """max |p(t)| over the grid t < -n_p, relative to the global peak."""
    grid = np.arange(_VALIDATION_T_MIN, 1.0, _VALIDATION_GRID_STEP)
    vals = np.abs(_eval_basis_array(grid))
    peak = float(vals.max())
    tail = vals[grid < -float(n_p)]
    if tail.size == 0:
        return 0.0
    return float(tail.max()) / peak


def min_truncation_length(rel_tol: float = 1e-3) -> int:
    """Smallest truncation length whose discarded tail stays below
    ``rel_tol`` times the pulse peak (grid-measured)."""
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    for n_p in range(1, 64):
        if _tail_peak_ratio(n_p) < rel_tol:
            return n_p
    raise ValueError(f"no admissible truncation length below 64 for rel_tol={rel_tol}")


@dataclass(frozen=True)
class WaveformParams:
    """The synthesis truncation length n_p, in symbol periods.

    ``n_p`` defaults to the shortest length passing the 10^-3 tail rule
    (9 symbol periods). An explicit shorter value is rejected rather than
    silently degrading the synthesis.
    """

    n_p: Optional[int] = None

    def __post_init__(self):
        if self.n_p is None:
            object.__setattr__(self, "n_p", min_truncation_length())
        if not (isinstance(self.n_p, (int, np.integer)) and self.n_p >= 1):
            raise ValueError(f"n_p must be a positive integer, got {self.n_p}")
        ratio = _tail_peak_ratio(int(self.n_p))
        if ratio >= 1e-3:
            need = min_truncation_length()
            raise ValueError(
                f"n_p={self.n_p} leaves a truncated tail at {ratio:.1e} of the "
                f"pulse peak (limit 1e-3); use n_p >= {need}"
            )
        object.__setattr__(self, "n_p", int(self.n_p))


def _eval_basis_array(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    c = np.cos(OMEGA * t) - (BETA / OMEGA) * np.sin(OMEGA * t)
    left = (1.0 - math.exp(-BETA)) * np.exp(BETA * t) * c
    mid = 1.0 - np.exp(BETA * (t - 1.0)) * c
    return np.where(t >= 1.0, 0.0, np.where(t < 0.0, left, mid))


def eval_basis(t):
    """Transmit pulse p(t); a float for scalar input, else an array."""
    p = _eval_basis_array(t)
    return float(p) if p.ndim == 0 else p


def synth_waveform(symbols, n_c: int, params: WaveformParams | None = None,
                   strict: bool = True) -> np.ndarray:
    """Shape a bipolar symbol stream at n_c samples per symbol.

    Sample k (at t = k/n_c) is sum over m of s_m p(t - m), truncated to the
    current and next n_p symbols; symbols beyond the end of the stream are
    taken as zero. The sum is an FIR over the zero-stuffed stream whose
    taps are p on the grid -n_p <= t < 1. With ``strict`` (the default)
    symbol values outside {-1, +1} are rejected; tests exercise linearity
    on a wider alphabet.
    """
    if params is None:
        params = WaveformParams()
    if not (isinstance(n_c, (int, np.integer)) and n_c >= 2):
        raise ValueError(f"oversampling rate must be an integer >= 2, got {n_c}")
    s = np.asarray(symbols, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("symbols must be a non-empty 1-d sequence")
    if strict and not np.all(np.isin(s, (-1.0, 1.0))):
        bad = s[~np.isin(s, (-1.0, 1.0))][0]
        raise ValueError(f"symbol values must be -1 or +1, got {bad}")
    lead = params.n_p * n_c
    taps = _eval_basis_array(np.arange(-lead, n_c) / n_c)
    up = np.zeros(s.size * n_c)
    up[::n_c] = s
    return np.convolve(up, taps)[lead:lead + up.size]


@dataclass
class HybridTrajectory:
    """Integrated oscillator path with its guard signal and emitted symbols.

    ``times`` interleaves the integration grid with detected guard events,
    so it is strictly increasing but not uniform. ``symbols`` holds the
    guard value over each unit interval of the symbol grid anchored at
    ``symbol_anchor`` (the first switching-capable event; NaN if the run
    never produced one, e.g. from an equilibrium start).
    """

    times: np.ndarray
    x: np.ndarray
    x_dot: np.ndarray
    s: np.ndarray
    symbols: np.ndarray
    symbol_anchor: float
    event_times: np.ndarray
    event_x: np.ndarray


def _rk4_step(x, v, s, h, om2):
    def f(xx, vv):
        return vv, 2.0 * BETA * vv - om2 * (xx - s)

    k1x, k1v = f(x, v)
    k2x, k2v = f(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = f(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = f(x + h * k3x, v + h * k3v)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def simulate_hybrid(x0: float, xdot0: float, duration: float,
                    dt: float = 1e-3) -> HybridTrajectory:
    """Integrate the self-excited oscillator with guard latching.

    The drive sign s holds its value between derivative zero crossings;
    at each detected crossing (bracketed by the fixed RK4 step, refined by
    bisection to 1e-9) it relatches to sgn(x). This integration shares no
    code with the superposition synthesis, which is the point: the two are
    compared in tests as independent constructions of the same waveform.
    """
    if dt > 1e-3:
        raise ValueError(f"dt must be <= 1e-3 symbol periods, got {dt}")
    if duration < 1:
        raise ValueError(f"duration must be >= 1 symbol period, got {duration}")
    om2 = OMEGA ** 2 + BETA ** 2

    s = 1.0 if x0 == 0.0 else math.copysign(1.0, x0)
    t, x, v = 0.0, float(x0), float(xdot0)
    times, xs, vs, ss = [t], [x], [v], [s]
    ev_t, ev_x = [], []

    while t < duration - 1e-12:
        h = min(dt, duration - t)
        x1, v1 = _rk4_step(x, v, s, h, om2)
        # a fresh crossing, not sign chatter from the event just handled
        # (genuine events are at least half a period apart)
        if v * v1 < 0.0 and (not ev_t or t - ev_t[-1] > 0.25):
            # derivative sign change inside the step: bisect the substep
            lo, hi = 0.0, h
            for _ in range(80):
                midh = 0.5 * (lo + hi)
                xm, vm = _rk4_step(x, v, s, midh, om2)
                if v * vm < 0.0:
                    hi = midh
                else:
                    lo = midh
                if hi - lo < 1e-12:
                    break
            if hi - lo > 1e-9:
                raise RuntimeError(
                    f"guard crossing near t={t + lo:.6f} did not bracket within dt"
                )
            he = 0.5 * (lo + hi)
            xe, ve = _rk4_step(x, v, s, he, om2)
            t, x, v = t + he, xe, ve
            ev_t.append(t)
            ev_x.append(x)
            if x != 0.0:
                s = math.copysign(1.0, x)
        else:
            t, x, v = t + h, x1, v1
        times.append(t)
        xs.append(x)
        vs.append(v)
        ss.append(s)

    times = np.asarray(times)
    xs = np.asarray(xs)
    vs = np.asarray(vs)
    ss = np.asarray(ss)
    ev_t = np.asarray(ev_t)
    ev_x = np.asarray(ev_x)

    # symbol grid: events where the state is inside the switching band
    sym_mask = np.abs(ev_x) < 1.0
    if np.any(sym_mask):
        anchor = float(ev_t[sym_mask][0])
        n_sym = int(math.floor(duration - anchor))
        # guard value over [anchor + k, anchor + k + 1): sample s just
        # after the symbol event, before the intervening half event
        probes = anchor + np.arange(n_sym) + 0.25
        idx = np.searchsorted(times, probes, side="right") - 1
        symbols = ss[idx]
    else:
        anchor = math.nan
        symbols = np.full(int(duration), s)
    return HybridTrajectory(times, xs, vs, ss, symbols, anchor, ev_t, ev_x)


@dataclass(frozen=True)
class ConjugacyReport:
    """Numeric check of the waveform/symbol equivalence conditions."""

    cond1: bool
    cond2_margin: float
    integral_inside: float
    integral_outside: float
    cond3: bool


def check_conjugacy(grid_step: float = 1e-4) -> ConjugacyReport:
    """Evaluate the three conjugacy conditions on a uniform grid.

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
    if grid_step > 1e-3:
        raise ValueError(f"grid_step must be <= 1e-3, got {grid_step}")

    def abs_p(lo, hi):
        n = int(round((hi - lo) / grid_step))
        t = lo + np.arange(n + 1) * grid_step
        return t, np.abs(_eval_basis_array(t))

    t_in, v_in = abs_p(-1.0, 1.0)
    integral_inside = 2.0 * float(np.trapezoid(v_in, dx=grid_step))
    t_out, v_out = abs_p(-8.0, 0.0)
    integral_outside = float(np.trapezoid(v_out, dx=grid_step))

    t_env = np.arange(_VALIDATION_T_MIN, 1.0, grid_step)
    margin = 5.0 * np.exp(-BETA * np.abs(t_env)) - 2.0 * np.abs(
        _eval_basis_array(t_env))
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
        t_grid = np.arange(0.0, flips.max() + 1.0, grid_step * 10)
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
        acc += sm * _eval_basis_array(t - m)
    return acc
