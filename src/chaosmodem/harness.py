"""Seeded Monte Carlo experiment runner and result emission.

Frames are the unit of randomness; blocks of frames are the unit of work
and of parallelism. Every frame derives its randomness from the three
child streams of SeedSequence([master_seed, frame_index]) (payload bits,
channel draw, noise), so a sweep is reproducible bit for bit at any
worker count and any block size: per-frame error counts are integers
and summation commutes. A frame builds only the streams it draws from; a
known-channel frame never draws a channel. A block runs a fixed number
of consecutive frames, set by the rail length only (``_BLOCK_SYMBOLS``),
through one pass of array operations over (frames, ...): each frame
draws its noise into its own row of the context's noise buffer in the
order it would alone, and the block returns one row of counts per frame,
in frame order. Acquisition still runs per frame, and the convolutions
with the symbol-rate response and of the genie thresholds per rail.

A sweep's blocks run in the calling process or, at jobs > 1, in the
process's one worker pool, which the first pooled sweep starts and every
later sweep with as many workers reuses (see ``_map_blocks``). Each task
carries its sweep's context, pickled, and the worker runs the task's
blocks on that copy.

Common random numbers across the Eb/N0 grid: each frame computes the
matched-filter outputs of its rails and of one unit-variance noise draw
per rail once; the grid points then reuse both via y = signal + sigma *
noise. That makes BER curves smooth in Eb/N0 at a fraction of the naive
cost.

Both receivers are one linear modem: a block's payloads are framed by
``txchain.build_frame``, and a rail is shaped at n_c samples per symbol,
propagated, matched-filtered and sampled once per symbol. The chaotic and
RRC chains differ only in their Pulse, and the known- and
estimated-channel sweeps only in what the receiver knows, so every frame
runs one pipeline that computes only the samples its receiver reads. A
channel is its gains at whole-symbol delays (see ``channel``). The sweep
context sends unit symbols through the waveform path once, behind a pure
delay of the channel's last path, for the response at symbol lags; every
block sums its paths' shifts of that response with ``channel.propagate``
at one sample per symbol, and the matched filter reads its noise at the
symbol instants only. A receiver's response to a channel is
``rx.composite_response`` of its gains and the pulse's cascade, which
every receiver reads through ``Pulse.cascade``. Only over the sync window
of an estimated-channel frame, where frame sync searches rail I off the
symbol grid, does the waveform path run at full rate, on that rail only.
That frame then acquires every grid point at once: frame sync, sync-grid
refinement, the LS estimate and the receiver design run on arrays over
the points. They decode and fail exactly the points a per-point
computation does, and their estimates agree with its to rounding. The
training rails, their ``rx.LsDesign`` and the sync template depend on the
pulse and the training length only, and the symbol-rate response
(``_probe``) on the pulse and the last path's delay only; every sweep of
a process shares them.

The CSV is also independent of the BLAS kernel: theory values are
correctly rounded scalars (``Pulse.energy`` is a ``math.fsum``), and
simulated values are integer counts, which the golden gate checks at its
sizes under several kernels. ``est_rms_*`` and every intermediate array
are not: a BLAS-backed product or correlation may round differently
under another kernel.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import connection, parent_process
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import baseline as bl
from . import channel as ch
from . import rxchain as rx
from . import theory as th
from . import txchain as tx
from .waveform import N_P, shaping_taps, synth_waveform

SIM_METHODS = ("chaotic-opt", "chaotic-subopt", "chaotic-zero",
               "rrc-mmse", "rrc-noeq")
THEORY_METHODS = ("theory-opt", "theory-subopt")
METHODS = SIM_METHODS + THEORY_METHODS
# the waveform family of each method's pulse; the theory curves are chaotic
_FAMILY = {m: "rrc" if m.startswith("rrc-") else "chaotic" for m in METHODS}

CSV_COLUMNS = ("method", "channel", "ebn0_db", "bits", "errors", "ber", "ci95")

# quasi-static timing: frames are delayed by a random whole-symbol pad the
# receiver has to find again by correlation
_PAD_SYMBOLS = (2, 20)
_SYNC_GRID_STEPS = (-2, -1, 0, 1)
# long enough to hold the whole response to a unit symbol in its middle
_PROBE_SYMBOLS = 96
# a block runs max(1, _BLOCK_SYMBOLS // n) frames of n-symbol rails: enough
# to share the fixed cost of a frame's many small numpy calls, few enough
# that a block's buffers stay small
_BLOCK_SYMBOLS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a method on a channel preset over an Eb/N0 grid.

    trials is the static-mode stop rule (total payload bits per grid
    point, rounded up to whole frames); frames is the quasi-static stop
    rule (frames per grid point). Both are carried so one config can be
    reused across modes.
    """

    method: str
    channel: str
    ebn0_grid: tuple
    n_training_bits: int = 256
    n_data_bits: int = 3840
    trials: int = 500000
    frames: int = 500
    master_seed: int = 20260822
    n_c: int = 8
    genie: bool = False
    failure_policy: str = "pessimistic"

    def __post_init__(self):
        for name in ("method", "channel", "failure_policy"):
            if not isinstance(v := getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {v!r}")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; known: {', '.join(METHODS)}")
        ch.get_preset(self.channel)
        try:
            grid = tuple(self.ebn0_grid)
            if isinstance(self.ebn0_grid, str) or any(
                    isinstance(g, (bool, np.bool_)) for g in grid):
                raise TypeError
            grid = tuple(float(g) for g in grid)
        except (TypeError, ValueError):
            grid = ()
        if not grid:
            raise ValueError(f"ebn0_grid must be a non-empty sequence of "
                             f"numbers, got {self.ebn0_grid!r}")
        if not all(np.isfinite(grid)):
            raise ValueError("ebn0_grid values must be finite")
        object.__setattr__(self, "ebn0_grid", grid)
        for name in ("n_training_bits", "n_data_bits", "trials", "frames"):
            v = getattr(self, name)
            if not (_is_int(v) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v}")
        if not (_is_int(self.master_seed) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed}")
        for name in ("n_training_bits", "n_data_bits"):
            v = getattr(self, name)
            if v % 2:
                raise ValueError(f"{name} must be even for QPSK framing, "
                                 f"got {v}")
        if not (_is_int(self.n_c) and self.n_c >= 2):
            raise ValueError(f"n_c must be an integer >= 2, got {self.n_c}")
        try:
            energy = pulse_for(_FAMILY[self.method], self.n_c).energy
        except ValueError as exc:
            raise ValueError(f"n_c = {self.n_c} does not suit {self.method}: "
                             f"{exc}") from None
        for db in grid:
            try:
                ch.calibrate_noise(db, energy)
            except ValueError as exc:
                raise ValueError(f"ebn0_grid value out of range: {exc}") from None
        if not isinstance(self.genie, bool):
            raise ValueError(f"genie must be True or False, got {self.genie!r}")
        if self.genie != (self.method == "chaotic-opt"):
            raise ValueError(f"genie must be true exactly for chaotic-opt, "
                             f"got genie = {self.genie} for {self.method}")
        if self.failure_policy not in ("pessimistic", "separate"):
            raise ValueError(
                f"failure_policy must be pessimistic or separate, got {self.failure_policy!r}")


@dataclass(frozen=True)
class BerRecord:
    """One measured (or analytic) point of a BER curve.

    Simulation records carry the raw counts and ber = errors / bits with
    its 95% binomial half-width. Analytic records (theory curves) have no
    counts; they store bits = errors = 0, the model value in ber, and a
    zero half-width.
    """

    method: str
    channel: str
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ci95: float

    def __post_init__(self):
        if self.bits < 0 or not 0 <= self.errors <= max(self.bits, 0):
            raise ValueError("need 0 <= errors <= bits")
        if self.bits > 0:
            p = self.errors / self.bits
            if self.ber != p:
                raise ValueError(f"ber {self.ber} != errors/bits {p}")
            if self.ci95 != _ci95(self.bits, self.errors):
                raise ValueError("ci95 inconsistent with the counts")
        else:
            if self.errors != 0 or self.ci95 != 0.0:
                raise ValueError("analytic records carry zero counts and ci95")
            if not 0.0 <= self.ber <= 1.0:
                raise ValueError(f"ber must be a probability, got {self.ber}")

    @classmethod
    def from_counts(cls, method: str, channel: str, ebn0_db: float,
                    bits: int, errors: int) -> "BerRecord":
        bits, errors = int(bits), int(errors)
        if bits <= 0:
            raise ValueError(f"bits must be a positive count, got {bits}")
        return cls(method, channel, float(ebn0_db), bits, errors,
                   errors / bits, _ci95(bits, errors))

    @classmethod
    def analytic(cls, method: str, channel: str, ebn0_db: float,
                 ber: float) -> "BerRecord":
        return cls(method, channel, float(ebn0_db), 0, 0, float(ber), 0.0)


class AllFramesFailed(RuntimeError):
    """A grid point of a sweep that excludes failed frames counted no bit,
    because every frame failed."""


def _is_int(v) -> bool:  # bools are ints to Python, but never a count
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _ci95(bits: int, errors: int) -> float:
    p = errors / bits
    return 1.96 * math.sqrt(p * (1.0 - p) / bits)


# ---------------------------------------------------------------- pulse ----

# a cascade table holds lags +-(DECAY_RADIUS + MAX_DELAY) minus any delay
_REACH = th.DECAY_RADIUS + 2 * rx.MAX_DELAY


class Pulse:
    """The pulse of one linear modem at n_c samples per symbol, as data.

    A rail is shaped with the known, read-only ``tail`` appended,
    propagated and matched-filtered; symbol m then sits at output sample
    lead + m * n_c.
    ``energy`` is the expected sample-sum transmit energy per rail bit:
    antipodal independent symbols cancel the pulse cross terms on average,
    so it is exactly one pulse energy, free of Monte Carlo error.
    ``table``, read-only, is the shaping/matched-filter cascade at the
    symbol lags -_REACH.._REACH; ``cascade`` is the one lookup into it.
    Subclasses supply ``synth`` (shaping without the tail) and ``mf``.
    """

    def __init__(self, n_c: int, taps, lead: int, tail, table):
        self.n_c, self.lead, self.tail, self.table = n_c, lead, tail, table
        self.energy = math.fsum(taps * taps)
        tail.flags.writeable = table.flags.writeable = False

    def cascade(self, lags) -> np.ndarray:
        """The cascade at lags[i] - d, shape (L, rx.MAX_DELAY + 1), for 1-d
        integer ``lags`` and every path delay d a receiver models."""
        at = _REACH + np.subtract.outer(lags, np.arange(rx.MAX_DELAY + 1))
        if np.min(at, initial=0) < 0:  # a negative index would wrap
            raise IndexError(f"a cascade lag lies below -{_REACH}")
        return self.table[at]

    def template(self, train) -> np.ndarray:
        """Clean matched-filter output of a training rail shaped without
        the tail, from its symbol 0 on. The offset frame_sync finds against
        it is the symbol-0 sample of the received stream."""
        return self.mf(self.synth(train))[
            self.lead:self.lead + train.size * self.n_c]


# each family still calls its own shaping and matched-filter functions: the
# benchmark's tracer wraps those four names until ROADMAP item 1 frees them
class _ChaoticPulse(Pulse):
    def synth(self, symbols) -> np.ndarray:
        return synth_waveform(symbols, self.n_c)

    def mf(self, stream) -> np.ndarray:
        return rx.matched_filter(stream, self.n_c)


class _RrcPulse(Pulse):
    def synth(self, symbols) -> np.ndarray:
        return bl.rrc_shape(symbols, self.n_c)

    def mf(self, stream) -> np.ndarray:
        return bl.rrc_matched_filter(stream, self.n_c)


@lru_cache(maxsize=None)
def pulse_for(family: str, n_c: int) -> Pulse:
    """The pulse of a waveform family, "chaotic" (cascade r(t)) or "rrc"
    (raised cosine), which every method of the family at n_c shares."""
    if family == "chaotic":
        return _ChaoticPulse(n_c, shaping_taps(n_c), 0, np.resize(
            [1.0, -1.0], N_P), th.response_r(np.arange(-_REACH, _REACH + 1.0)))
    if family == "rrc":
        taps = bl.rrc_taps(n_c)  # its cascade is zero past SPAN
        return _RrcPulse(n_c, taps, bl.SPAN * n_c, np.empty(0), np.pad(
            bl.symbol_cascade(taps, n_c), _REACH - bl.SPAN))
    raise ValueError(f"unknown waveform family {family!r}")


# the child streams of a frame's SeedSequence([master_seed, frame_index])
_CONTENT, _CHANNEL, _NOISE = range(3)


def _frame_streams(master_seed: int, frame_idx: int, *streams: int):
    """Generators of the frame's given child streams. Child k is built as
    SeedSequence([master_seed, frame_idx], spawn_key=(k,)), which is what
    ``.spawn(3)`` returns as its k-th child, so a frame builds only the
    streams it draws from."""
    return [np.random.default_rng(np.random.SeedSequence(
        [master_seed, frame_idx], spawn_key=(k,))) for k in streams]


# the methods and the channel presets each sweep entry point runs
_SWEEPS = {"run_static_sweep": (SIM_METHODS, (*ch.STATIC_PRESETS,)),
           "run_quasi_static": (("chaotic-subopt", "rrc-mmse"),
                                (*ch.QUASI_PRESETS, "quasi")),
           "run_theory_curves": (THEORY_METHODS, (*ch.STATIC_PRESETS,))}


def _preset(config: ExperimentConfig, sweep: str):
    """The config's channel preset, if ``sweep`` runs its method and channel."""
    methods, channels = _SWEEPS[sweep]
    if config.method not in methods:
        raise ValueError(f"method = {config.method!r} does not run in {sweep}, "
                         f"which runs {', '.join(methods[:-1])} or {methods[-1]}")
    preset = ch.get_preset(config.channel)
    if config.channel not in channels:
        kind = ("quasi-static" if isinstance(preset, ch.QuasiStaticModel)
                else "static")
        raise ValueError(
            f"channel = {config.channel!r} is {kind}; {sweep} needs "
            f"{', '.join(channels[:-1])} or {channels[-1]}")
    return preset


# ---------------------------------------------------------------- frames ---

class _Context:
    """Per-sweep state. It is built in the parent before any frame runs, so
    a config the pipeline cannot run fails there, and it travels pickled
    with every pooled task, whose blocks the worker runs on its copy. Only
    its noise buffer (see ``sampled_frames``) changes after construction;
    every other array it holds is read-only, in a worker too."""

    def __init__(self, config: ExperimentConfig, quasi: bool):
        self.channel = _preset(config, "run_quasi_static" if quasi
                               else "run_static_sweep")
        self.config = config
        self.quasi = quasi
        n_c = config.n_c
        self.pulse = pulse = pulse_for(_FAMILY[config.method], n_c)
        self.sigmas = np.array([ch.calibrate_noise(db, pulse.energy)
                                for db in config.ebn0_grid])
        # the last path's delay; see _probe
        self.delay = (self.channel.n_paths if quasi else self.channel.size) - 1
        self.train, self.known = np.empty((2, 0)), None
        if quasi:
            try:
                self.train, self.design, self.template = _training(
                    pulse, config.n_training_bits)
            except np.linalg.LinAlgError:  # a ValueError, not the config's
                raise
            except ValueError as exc:
                raise ValueError(f"n_training_bits = {config.n_training_bits} "
                                 f"cannot estimate the channel: {exc}") from None
            self.search_len = ((_PAD_SYMBOLS[1] + 4) * n_c + pulse.lead
                               + self.template.size)
        else:
            # channel and noise level are known: every frame gets an exact
            # estimate's receiver, every point decoded and none failed; the
            # one gains row, and so its receiver row, is every point's
            self.known = _receiver(self, _dense(self.channel),
                                   self.sigmas * self.sigmas)
        for a in (self.sigmas, self.train, self.known):
            if a is not None:
                a.flags.writeable = False
        (self.h_sym, self.h_lag, self.edge, self.mf_kernel, self.mf_back,
         size) = _probe(pulse, self.delay)
        n = self.train.shape[1] + config.n_data_bits // 2
        # shaping emits n_c samples per symbol, tail included
        self.noise_size = size + (n + pulse.tail.size - _PROBE_SYMBOLS) * n_c
        self.n_frames = (config.frames if quasi
                         else -(-config.trials // config.n_data_bits))
        self.block = min(max(1, _BLOCK_SYMBOLS // n), self.n_frames)
        # a frame's symbol-rate noise read must end within its own draw;
        # both ends shift with the pad
        over = (pulse.lead + (n + self.mf_kernel.shape[0] - 1) * n_c
                - self.mf_back - self.noise_size)
        if over > 0:
            raise RuntimeError(f"the symbol-rate noise read ends {over} "
                               f"samples past the frame's noise draw")
        self.noise_buffer = None

    def __getstate__(self):
        return {**vars(self), "noise_buffer": None}

    def __setstate__(self, state):
        # unpickled arrays come back writeable
        vars(self).update(state)
        for a in _held_arrays(state.values()):
            a.flags.writeable = False

    def sampled_frames(self, sent, chans, pads, rngs_noise):
        """Matched-filter outputs at the symbols of a block of F frames,
        each from its true offset pad + lead on: of the rails ``sent``, shape
        (F, 2, n), through the channels ``chans``, each frame's gains at
        delays 0..delay, shape (F, delay + 1), after ``pads`` samples of
        silence, and of one unit-variance noise draw per rail from each
        frame's generator in ``rngs_noise`` (the samples the waveform path
        yields there); and each frame's full-rate draw, shape (2, pad +
        noise_size). ``channel.propagate`` sums the paths at one sample per
        symbol over the probed response, which runs ``delay`` symbols late,
        so the outputs from ``delay`` on are the frame's.

        The draws are views of the context's noise buffer, valid until the
        next block: per frame of a block, the draw of both rails, which
        ends its row, after the zero margin the matched filter reads before
        it, sized for the longest pad. The first block that runs on the
        context allocates it, so the parent of a pool never does; a pickled
        context leaves it out, and each pooled task's copy allocates its
        own."""
        n_c = self.config.n_c
        n_f, _, n = sent.shape
        n_out = n + self.delay
        if self.noise_buffer is None:
            self.noise_buffer = np.zeros((self.block, 2, self.mf_back
                                          + _PAD_SYMBOLS[1] * n_c
                                          + self.noise_size))
        padded = self.noise_buffer[:n_f]
        draws = []
        for row, pad, rng in zip(padded, pads, rngs_noise):
            # the draw ends the row, so every frame's symbol-rate read starts
            # at the same column; before the draw lies the zero margin the
            # matched filter reads, where a longer-padded frame drew
            start = row.shape[1] - pad - self.noise_size
            row[:, :start] = 0.0
            for rail in row[:, start:]:
                rng.standard_normal(out=rail)
            draws.append(row[:, start:])
        tail = self.pulse.tail
        ext = np.concatenate(
            [sent, np.broadcast_to(tail, (n_f, 2, tail.size))], axis=2)
        z = np.array([np.convolve(s, self.h_sym)[self.h_lag:self.h_lag + n_out]
                      for s in ext.reshape(2 * n_f, -1)]).reshape(n_f, 2, n_out)
        edge = self.edge[:n_out, :ext.shape[2]]
        z[..., :edge.shape[0]] += ext[..., :edge.shape[1]] @ edge.T
        sig = ch.propagate(z, chans[:, None], 1)[..., self.delay:n_out]
        # the noise at the symbols: symbol m reads the symbol periods
        # m..m+J-1 of the draw from its offset, period m + j through kernel
        # row j; row j of ``phases`` has every period through kernel row j,
        # and its entry m + j sits at j * (n_periods + 1) + m of a flat row
        start = _PAD_SYMBOLS[1] * n_c + self.pulse.lead
        n_rows = self.mf_kernel.shape[0]
        n_periods = n + n_rows - 1
        periods = padded[..., start:start + n_periods * n_c].reshape(
            n_f, 2, n_periods, n_c)
        phases = self.mf_kernel @ periods.swapaxes(2, 3)
        s0, s1, s2, s3 = phases.strides
        terms = np.lib.stride_tricks.as_strided(
            phases, phases.shape[:3] + (n,), (s0, s1, s2 + s3, s3),
            writeable=False)
        return sig, terms.sum(axis=2), draws

    def sync_window(self, rail, chan, pad: int, w):
        """Full-rate matched-filter outputs (signal, noise) of one rail over
        the frame's first search_len samples, all that ``rx.frame_sync``
        reads, and of its noise draw ``w``, bitwise: shaping the first
        symbols only and filtering the first samples only keeps every
        full-overlap output."""
        pulse, n_c, win = self.pulse, self.config.n_c, self.search_len
        cut = win + n_c  # the matched filter reads up to n_c - 1 ahead
        # the symbols before the cut, and those whose shaping reaches back
        shaped = -(-(cut - pad) // n_c) + self.edge.shape[1]
        x = np.concatenate([np.zeros(pad), ch.propagate(pulse.synth(
            np.concatenate([rail, pulse.tail])[:shaped]), chan, n_c)])[:cut]
        return pulse.mf(x)[:win], pulse.mf(w[:cut])[:win]


def _held_arrays(objs):
    """Every array in ``objs``, through tuples and attributes."""
    for v in objs:
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, tuple):
            yield from _held_arrays(v)
        elif hasattr(v, "__dict__"):
            yield from _held_arrays(vars(v).values())


@lru_cache(maxsize=None)
def _training(pulse: Pulse, n_bits: int):
    """The training rails of ``n_bits`` bits, their ``rx.LsDesign`` for the
    pulse and the sync template, all read-only. They depend on the pulse
    (one per family and n_c, see ``pulse_for``) and the bit count only, so
    the sweeps of a process share them; a model that cannot be built fails
    the sweep's context, before any frame runs."""
    train = np.stack(tx.qpsk_map(tx.gen_training(n_bits)))
    train.flags.writeable = False
    design = rx.build_ls_design(train, pulse.cascade(rx.LAGS))
    template = pulse.template(train[0])
    template.flags.writeable = False
    return train, design, template


@lru_cache(maxsize=None)
def _probe(pulse: Pulse, delay: int):
    """The symbol-rate path of frames sent through ``delay`` symbols of
    silence, derived by pushing unit symbols of a short probe frame
    through the waveform path: (h_sym, h_lag, edge, mf_kernel, mf_back,
    size), the arrays read-only, since every sweep of the pulse and delay
    in a process shares them.

    Shaping drops the waveform before t = 0, so a rail and its tail give
    their convolution with ``h_sym`` (``h_lag`` taps precede the symbol)
    plus ``edge``, each early unit symbol's real response minus that
    convolution; a symbol is early while its shaping reaches before t = 0,
    which the delay hides from ``h_lag``. Noise is read through
    ``mf_kernel``, the reversed MF folded into one row of n_c taps per
    symbol period, zero-filled at the end; output k reads the noise from
    k - mf_back on. ``size`` is the length of the probe frame's noise
    draw. The delay is the preset's longest path: it keeps the outputs
    before symbol 0 that each path shift reads, and makes the probe as
    long as a rail through the channel."""
    n_c = pulse.n_c

    def probe(symbols):
        v = np.concatenate([np.zeros(delay * n_c), pulse.synth(symbols)])
        return pulse.mf(v)[pulse.lead::n_c][:symbols.size], v.size

    unit = np.eye(_PROBE_SYMBOLS)
    mid = _PROBE_SYMBOLS // 2
    y, size = probe(unit[mid])
    first, last = np.flatnonzero(y)[[0, -1]]
    h_sym, h_lag = y[first:last + 1], int(mid - first)
    rows = slice(h_lag, h_lag + last - mid + 1)
    edge = np.stack([probe(e)[0][:rows.stop - rows.start]
                     - np.convolve(e, h_sym)[rows]
                     for e in unit[:h_lag + delay + 1]], axis=1)
    g = pulse.mf(np.eye(1, size, size // 2)[0])  # impulse at size // 2
    first, last = np.flatnonzero(g)[[0, -1]]
    kernel = g[first:last + 1][::-1]
    mf_kernel = np.pad(kernel, (0, -kernel.size % n_c)).reshape(-1, n_c)
    for a in (h_sym, edge, mf_kernel):
        a.flags.writeable = False
    return h_sym, h_lag, edge, mf_kernel, int(last - size // 2), size


def _count_errors(ctx: _Context, ys, sent, receiver):
    """Count, per frame of a block and grid point, the rail decisions in
    error past the training symbols.

    ``ys`` holds the symbol-rate observations, shape (frames, points, 2,
    n). ``sent`` holds each frame's two transmitted rails, shape
    (frames, 2, n). ``receiver`` is the method's array from ``_receiver``,
    a known channel's (``_Context.known``) for every frame, or one row per
    frame and point of an estimated channel: feedback rows (1, 1, w) or
    (frames, points, 1, w), shared by the two rails, or equalizer taps
    (points, EQ_LENGTH) or (frames, points, EQ_LENGTH). Error rate is
    counted per rail decision: each rail carries one antipodal bit per
    symbol, as the closed forms assume.

    The threshold receivers decide +1 where y >= theta (a tie goes to +1),
    so a decision is in error exactly where that comparison differs from
    ``sent > 0``: they count the comparison and form no decision. Every
    point of a frame shares a rail's genie thresholds. The decision-
    feedback decoder takes the block's frames, points and rails as one
    batch, and starts from the transmitted rails. That is not a genie: its
    result is the causal recursion's unique solution whatever iterate it
    starts from, so ``sent`` sets only how much work the decoder does. The
    solution differs from ``sent`` only around its decision errors, so few
    (row, symbol) pairs need recomputing after the first pass: on the
    benchmark's sweeps the second pass recomputes 2-3% of a batch's
    symbols. From the signs of y, which are wrong at a few percent of the
    symbols of every row, it recomputes 20-40% of them.
    With shared feedback the points of a frame also share the first pass,
    which reads only ``sent``."""
    method, n_train = ctx.config.method, ctx.train.shape[1]
    sent = sent[:, None]
    if method == "chaotic-subopt":
        dec = rx.decode_suboptimal(ys, ctx.train, receiver, guess=sent)
        return np.count_nonzero(dec[..., n_train:] != sent[..., n_train:],
                                axis=(2, 3))
    theta = 0.0
    if method == "chaotic-opt":
        # genie: thresholds from the true symbols including the shaping tail
        # cancel every ISI term exactly
        rails = sent.reshape(-1, sent.shape[-1])
        theta = np.array([rx.threshold_optimal(
            np.concatenate([rail, ctx.pulse.tail]), receiver)[:rail.size]
            for rail in rails]).reshape(sent.shape)
    elif method == "rrc-mmse":
        ys = bl.apply_equalizer(ys, receiver)
    return np.count_nonzero(((ys >= theta) != (sent > 0.0))[..., n_train:],
                            axis=(2, 3))


# ---------------------------------------------------------------- sweeps ---

def _dense(gains) -> np.ndarray:
    """A channel's gains as one row over delays 0..rx.MAX_DELAY."""
    dense = np.zeros((1, rx.MAX_DELAY + 1))
    dense[0, :len(gains)] = gains
    return dense


def _receiver(ctx: _Context, gains, noise_var):
    """The one array a method's decisions read (None for chaotic-zero and
    rrc-noeq), for channels given by their gains at delays 0..rx.MAX_DELAY,
    shape (rows, rx.MAX_DELAY + 1), and the noise variances of the grid
    points, shape (rows,) or, with one gains row for every point, (points,).

    rrc-mmse: its equalizer taps, one row per point, from one
    ``bl.design_mmse`` call. chaotic-subopt: its decision-feedback
    coefficients, shape (rows, 1, w), which the decoder broadcasts over
    the two rails: ``rx.composite_response`` at past lags 1..w over each
    row's ``rx.decision_window``, zero-filled past it to the widest
    window. chaotic-opt, on a known channel only: the genie response of
    its one gains row, 1-d, at lags -th.DECAY_RADIUS..th.DECAY_RADIUS +
    the last path's delay. Each reads the pulse's cascade at its lags."""
    method = ctx.config.method
    if method == "rrc-mmse":
        return bl.design_mmse(gains, noise_var)
    if method == "chaotic-opt":
        lags = np.arange(-th.DECAY_RADIUS, th.DECAY_RADIUS + ctx.delay + 1)
        return rx.composite_response(gains, ctx.pulse.cascade(lags))[0]
    if method == "chaotic-subopt":
        windows = rx.decision_window(gains)
        width = int(windows.max(initial=0))
        rows = rx.composite_response(
            gains, ctx.pulse.cascade(np.arange(1, width + 1)))
        rows[np.arange(width) >= windows[:, None]] = 0.0
        return rows[:, None]
    return None


def _acquire(ctx: _Context, sent, chan, pad: int, sig, noise, w):
    """Acquire an estimated-channel frame: (failures and estimate RMS per
    point, and the gains rows and noise variances of the decoded points,
    the points without a failure, for ``_receiver``). ``sig``, ``noise``
    and ``w`` are the frame's part of what ``_Context.sampled_frames``
    returned, and ``chan`` its true gains. A point is decoded if frame
    sync finds the true offset.

    Frame sync finds each point's coarse correlation peak in rail I over
    the full-rate window, snaps it to the symbol grid and refines it over
    the grid steps by the pooled path-model residual. Among candidates
    whose residual is within a factor two of the best, the largest offset
    wins: an offset early by one symbol shows up as every path delay
    shifted up by one, which still fits; an offset late by one needs delay
    -1 and leaves the training energy unexplained. The winner must still
    explain at least half of the observed training energy.

    All grid points go through this as arrays: one ``rx.frame_sync`` call
    over the window's signal and noise, one gather of every candidate's
    training observations on both rails from the symbol-rate samples,
    which start at the true offset (the candidates are whole symbols
    apart), residuals against an orthonormal basis of the path model, and
    one ``rx.estimate_channel_ls`` call over the points that kept their
    timing. Besides frame sync, the window bounds the candidates only by
    their training block: on a full window that rejects only candidate
    25 + lead / n_c, whose companions all lie past the latest true offset,
    20 + lead / n_c; on a shorter frame, blocks past its end. The coarse
    peak's floor always passes, so every point has a best residual. A point
    that can keep its timing has the true offset among its candidates, so
    each is at most three symbols early and every read of it lies at least
    ``design.rows.start - 3`` symbols into the frame; reads outside the
    frame reach only points that fail anyway and are clipped to it. The
    decoded points and failures are those of the per-point computation
    ``tests/oracles.py::acquire_loop``; the estimates agree to rounding."""
    n_c, points = ctx.config.n_c, np.arange(ctx.sigmas.size)
    win_sig, win_noise = ctx.sync_window(sent[0], chan, pad, w[0])
    coarse = rx.frame_sync(win_sig, ctx.template, win_noise, ctx.sigmas)
    # candidate offsets in symbols, each needing the whole training block
    cand = np.rint(coarse / n_c).astype(int)[:, None] + _SYNC_GRID_STEPS
    valid = (cand >= 0) & ((cand + ctx.train.shape[1]) * n_c
                           <= win_sig.size)
    # window offset k n_c is symbol k - (pad + lead) / n_c of the frame;
    # entry r n + m of the flattened rails is rail r's symbol m
    rows, n = ctx.design.rows, sig.shape[1]
    q = np.clip((cand - (pad + ctx.pulse.lead) // n_c)[..., None]
                + np.arange(rows.start, rows.stop), 0, n - 1)
    q = np.concatenate([q, q + n], axis=2)
    obs = sig.take(q) + ctx.sigmas[:, None, None] * noise.take(q)
    flat = obs.reshape(-1, obs.shape[2])
    basis = ctx.design.basis
    resid = flat - (flat @ basis) @ basis.T
    res = np.where(valid, np.sum(resid * resid, axis=1).reshape(cand.shape),
                   np.inf)
    good = valid & (res <= 2.0 * res.min(axis=1, keepdims=True) + 1e-12)
    pick = good.shape[1] - 1 - np.argmax(good[:, ::-1], axis=1)
    obs, res = obs[points, pick], res[points, pick]
    hit = ((res <= 0.5 * np.sum(obs * obs, axis=1))
           & (cand[points, pick] * n_c == pad + ctx.pulse.lead))
    gains, noise_var = rx.estimate_channel_ls(obs[hit], ctx.design)
    rms = np.full(points.size, np.nan)
    rms[hit] = np.sqrt(np.mean((gains - _dense(chan)) ** 2, axis=1))
    return (~hit).astype(np.int64), rms, gains, noise_var


def _spread(decoded, rows) -> np.ndarray:
    """``rows``, one per decoded (frame, point) of a block in row-major
    order, laid out over the block's (frames, points), zero elsewhere."""
    out = np.zeros(decoded.shape + rows.shape[1:])
    out[decoded] = rows
    return out


def _block(ctx: _Context, frames: range):
    """Per frame of the block, in frame order, and per grid point: payload
    errors, counted payload bits, failures and estimate RMS, each shape
    (frames, points). Every frame draws from its own streams, in the
    order a frame alone would, its noise into its row of the context's
    noise buffer; the frames then share every step but acquisition, which
    runs per frame."""
    cfg = ctx.config
    n_f, n_points = len(frames), ctx.sigmas.size
    bits = np.empty((n_f, cfg.n_data_bits), dtype=np.int64)
    chans, pads, rngs_noise = np.empty((n_f, ctx.delay + 1)), [0] * n_f, []
    for f, idx in enumerate(frames):
        rng_content, rng_noise = _frame_streams(cfg.master_seed, idx,
                                                _CONTENT, _NOISE)
        bits[f] = rng_content.integers(0, 2, cfg.n_data_bits)
        rngs_noise.append(rng_noise)
        if ctx.quasi:
            (rng_chan,) = _frame_streams(cfg.master_seed, idx, _CHANNEL)
            gamma = ch.draw_gamma(ctx.channel, rng_chan)
            pads[f] = int(rng_chan.integers(_PAD_SYMBOLS[0],
                                            _PAD_SYMBOLS[1] + 1)) * cfg.n_c
            chans[f] = ch.gains_from_gamma(gamma, ctx.channel.n_paths)
        else:
            chans[f] = ctx.channel
    sent = tx.build_frame(bits, ctx.train)
    sig, noise, draws = ctx.sampled_frames(sent, chans, pads, rngs_noise)
    if ctx.quasi:
        failures, rms, gains, noise_var = (np.concatenate(part) for part in zip(
            *(_acquire(ctx, sent[f], chans[f], pads[f], sig[f], noise[f],
                       draws[f]) for f in range(n_f))))
        failures, rms = failures.reshape(n_f, -1), rms.reshape(n_f, -1)
        # a failed point decodes through a zero receiver, and its count is
        # not used
        receiver = _spread(failures == 0, _receiver(ctx, gains, noise_var))
    else:
        receiver = ctx.known
        failures = np.zeros((n_f, n_points), dtype=np.int64)
        rms = np.full((n_f, n_points), np.nan)
    decoded = failures == 0
    # a failed point has all its payload bits in error, or none counted
    lost = failures * cfg.n_data_bits * (cfg.failure_policy == "pessimistic")
    errors = lost
    if decoded.any():
        ys = noise[:, None] * ctx.sigmas[:, None, None]
        ys += sig[:, None]
        errors = np.where(decoded, _count_errors(ctx, ys, sent, receiver),
                          lost)
    return errors, np.where(decoded, cfg.n_data_bits, lost), failures, rms


def _run(config: ExperimentConfig, quasi: bool, jobs: int,
         stats: Optional[dict] = None) -> List[BerRecord]:
    """Run a sweep's frames and sum their counts into one record per grid
    point; fill ``stats``, if given, with per-point failure counts and
    estimation RMS summaries."""
    ctx = _Context(config, quasi)
    n_frames = ctx.n_frames
    results = _map_blocks(ctx, jobs)
    errors, counted, failures, rms_all = (np.concatenate(r)
                                          for r in zip(*results))
    errors, counted, failures = (np.sum(a, axis=0)
                                 for a in (errors, counted, failures))
    if stats is not None:
        per_point = []
        for p, db in enumerate(config.ebn0_grid):
            ok = rms_all[np.isfinite(rms_all[:, p]), p]
            rms = ((np.mean(ok), _percentile_90(ok), np.max(ok))
                   if ok.size else (np.nan,) * 3)
            per_point.append({
                "ebn0_db": float(db),
                "frames": n_frames,
                "failed_frames": int(failures[p]),
                "excluded_bits": int(n_frames * config.n_data_bits
                                     - counted[p]),
                "est_rms_mean": float(rms[0]), "est_rms_p90": float(rms[1]),
                "est_rms_max": float(rms[2]),
            })
        stats["per_point"] = per_point
        stats["failure_policy"] = config.failure_policy
    records = []
    for p, db in enumerate(config.ebn0_grid):
        if counted[p] == 0:
            raise AllFramesFailed(
                f"every frame failed sync/estimation at {db} dB; "
                "no bits were counted")
        records.append(BerRecord.from_counts(
            config.method, config.channel, db, int(counted[p]),
            int(errors[p])))
    return records


def _percentile_90(values) -> float:
    """``np.percentile(values, 90.0)`` bitwise, by numpy's linear method:
    the lerp between the sorted values around index 0.9 (n - 1), from the
    nearer end. ``np.percentile`` itself imports ``numpy.ma``."""
    s = np.sort(values)
    v = (s.size - 1) * 0.9
    i = math.floor(v)
    if i >= s.size - 1:
        return float(s[-1])
    a, b, t = float(s[i]), float(s[i + 1]), v - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def run_static_sweep(config: ExperimentConfig, jobs: int = 1) -> List[BerRecord]:
    """Known-channel Monte Carlo over the Eb/N0 grid.

    Frames are estimated-channel frames with the preset as their channel,
    no pad and no training, whose receiver is fed the true channel (the
    estimator is bypassed); they run until at least ``trials`` payload bits
    per grid point. chaotic-opt requires genie=True since the exact
    threshold needs the transmitted symbols themselves.
    """
    return _run(config, False, jobs)


def run_quasi_static(config: ExperimentConfig, jobs: int = 1,
                     stats: Optional[dict] = None) -> List[BerRecord]:
    """Estimated-channel Monte Carlo: per frame, draw gamma, delay the
    frame by a random whole-symbol pad, re-acquire timing by correlation
    over a full-rate window, LS-estimate the channel from the training
    block, and decode every grid point that kept its timing in one batch.

    Methods: chaotic-subopt (decision feedback) or rrc-mmse. Frames that
    fail sync or estimation are counted with every payload bit in error
    under the default pessimistic policy, or excluded from the counts (and
    reported) under failure_policy="separate". Pass a dict as ``stats`` to
    receive per-point failure counts and estimation RMS summaries.
    """
    return _run(config, True, jobs, stats)


# ---------------------------------------------------------------- theory ---

def run_theory_curves(config: ExperimentConfig) -> List[BerRecord]:
    """Closed-form BER over the grid, with sigma_W calibrated exactly the
    way the simulation calibrates its noise (measured waveform energy and
    measured receive-kernel energy)."""
    preset = _preset(config, "run_theory_curves")
    eb = pulse_for("chaotic", config.n_c).energy
    P = th.compute_signal_power(preset)
    records = []
    for db in config.ebn0_grid:
        sigma = ch.calibrate_noise(db, eb)
        # matched-filter noise deviation through the realized receive kernel
        sw = sigma * math.sqrt(eb) / config.n_c
        if config.method == "theory-opt":
            ber = th.ber_optimal(P, sw)
        else:
            ber = th.ber_suboptimal(preset, sw)
        records.append(BerRecord.analytic(config.method, config.channel,
                                          db, ber))
    return records


# ---------------------------------------------------------------- output ---

def emit_csv(records: Sequence[BerRecord], path: str) -> str:
    """Newline-terminated CSV in the fixed column order."""
    if not records:
        raise ValueError("no records to emit")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join([r.method, r.channel, repr(r.ebn0_db),
                               str(r.bits), str(r.errors), repr(r.ber),
                               repr(r.ci95)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_plotdata(records: Sequence[BerRecord], out_dir: str) -> List[str]:
    """One whitespace-separated file per method, rows sorted by ebn0_db."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    methods = sorted({r.method for r in records})
    for method in methods:
        rows = sorted((r for r in records if r.method == method),
                      key=lambda r: (r.ebn0_db, r.channel))
        path = os.path.join(out_dir, f"{method}.dat")
        with open(path, "w") as fh:
            fh.write("# ebn0_db ber ci95 bits errors channel\n")
            for r in rows:
                fh.write(f"{r.ebn0_db!r} {r.ber!r} {r.ci95!r} "
                         f"{r.bits} {r.errors} {r.channel}\n")
        paths.append(path)
    return paths


# the process's worker pool and its worker count, or None; see _map_blocks
_POOL: Optional[Tuple[int, ProcessPoolExecutor]] = None


def _drop_pool():
    """Shut the process's worker pool down, its workers joined, if it has
    one."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(wait=True)


def _watch_parent():
    """Pool initializer: end the worker once the pool's owner is gone, which
    the pool misses when the owner is killed outright. The worker's pipe
    from the owner closes then, by any start method; under fork a worker
    started later holds it open too, so the workers end last one first."""
    def watch(sentinel):
        connection.wait([sentinel])
        os._exit(1)
    threading.Thread(target=watch, args=(parent_process().sentinel,),
                     daemon=True).start()


def _map_blocks(ctx: _Context, jobs: int):
    """``_block``'s results of the sweep's blocks of ``ctx.block`` frames,
    the last one possibly shorter, in frame order.

    A sweep of one block, or at jobs = 1, runs in this process. Otherwise
    k = min(jobs, blocks) workers run it. The process keeps one pool, which
    the first sweep that needs k workers starts and every later sweep that
    needs k reuses; a sweep that needs another k shuts it down and starts
    its own. Workers outlive sweeps, so every task carries the sweep's
    context, pickled, with its chunk of blocks. A pool that breaks is
    dropped. One that broke before the sweep, under an earlier sweep or
    from outside, shows up as the sweep's tasks fail on the reused pool;
    the sweep then runs once more on a fresh pool. The stdlib joins the
    workers when the process exits, and a worker whose owner was killed
    exits on its own."""
    global _POOL
    if not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    blocks = [range(i, min(i + ctx.block, ctx.n_frames))
              for i in range(0, ctx.n_frames, ctx.block)]
    # the pool starts all its workers up front, so never more than blocks
    jobs = min(jobs, len(blocks))
    if jobs == 1:
        return [_block(ctx, b) for b in blocks]
    chunk = max(1, len(blocks) // (4 * jobs))
    for _ in range(2):  # a reused pool that broke, then a fresh one
        reused = _POOL is not None and _POOL[0] == jobs
        if not reused:
            _drop_pool()
            _POOL = jobs, ProcessPoolExecutor(max_workers=jobs,
                                              initializer=_watch_parent)
        try:
            return list(_POOL[1].map(_block, itertools.repeat(ctx), blocks,
                                     chunksize=chunk))
        except BrokenProcessPool:
            _drop_pool()
            if not reused:
                raise
