"""Seeded Monte Carlo experiment runner and result emission.

Frames are the unit of work and of parallelism. Every frame derives its
randomness from SeedSequence([master_seed, frame_index]) split into three
child streams (payload bits, channel draw, noise), so a sweep is
reproducible bit for bit at any worker count: per-frame error counts are
integers and summation commutes.

Common random numbers across the Eb/N0 grid: each frame synthesizes its
waveform, runs it through the channel and the matched filter once, and
matched-filters one unit-variance noise stream once; the grid points then
reuse both via y = signal + sigma * noise. That makes BER curves smooth in
Eb/N0 at a fraction of the naive cost.

Both receivers are one linear modem: a rail is shaped at n_c samples per
symbol, propagated, matched-filtered and sampled once per symbol. The
chaotic and RRC chains differ only in their Pulse, so every sweep runs the
same frame pipeline.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from . import baseline as bl
from . import channel as ch
from . import rxchain as rx
from . import theory as th
from . import txchain as tx
from .waveform import WaveformParams, synth_waveform

SIM_METHODS = ("chaotic-opt", "chaotic-subopt", "chaotic-zero",
               "rrc-mmse", "rrc-noeq")
THEORY_METHODS = ("theory-opt", "theory-subopt")
METHODS = SIM_METHODS + THEORY_METHODS

CSV_COLUMNS = ("method", "channel", "ebn0_db", "bits", "errors", "ber", "ci95")

# quasi-static timing: frames are delayed by a random whole-symbol pad the
# receiver has to find again by correlation
_PAD_SYMBOLS = (2, 20)
_SYNC_GRID_STEPS = (-2, -1, 0, 1)
_MAX_DELAY = 3
_LAG_BACK = 6


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
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; known: {', '.join(METHODS)}")
        ch.get_preset(self.channel)
        grid = tuple(float(g) for g in self.ebn0_grid)
        if not grid:
            raise ValueError("ebn0_grid must not be empty")
        if not all(np.isfinite(grid)):
            raise ValueError("ebn0_grid values must be finite")
        object.__setattr__(self, "ebn0_grid", grid)
        for name in ("n_training_bits", "n_data_bits", "trials", "frames"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v}")
        if not (isinstance(self.master_seed, (int, np.integer))
                and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed}")
        if self.n_training_bits % 2 or self.n_data_bits % 2:
            raise ValueError("QPSK framing needs even bit counts")
        if not (isinstance(self.n_c, (int, np.integer)) and self.n_c >= 2):
            raise ValueError(f"n_c must be an integer >= 2, got {self.n_c}")
        if self.genie and self.method != "chaotic-opt":
            raise ValueError("genie decoding exists only for chaotic-opt")
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
        bits = int(bits)
        errors = int(errors)
        return cls(method, channel, float(ebn0_db), bits, errors,
                   errors / bits, _ci95(bits, errors))

    @classmethod
    def analytic(cls, method: str, channel: str, ebn0_db: float,
                 ber: float) -> "BerRecord":
        return cls(method, channel, float(ebn0_db), 0, 0, float(ber), 0.0)


def _ci95(bits: int, errors: int) -> float:
    p = errors / bits
    return 1.96 * math.sqrt(p * (1.0 - p) / bits)


# ---------------------------------------------------------------- pulse ----

class Pulse:
    """The pulse of one linear modem at n_c samples per symbol.

    A rail is shaped with the known ``tail`` appended, propagated and
    matched-filtered; symbol m then sits at output sample lead + m * n_c.
    ``energy`` is the expected sample-sum transmit energy per rail bit:
    antipodal independent symbols cancel the pulse cross terms on average,
    so it is exactly one pulse energy, free of Monte Carlo error.
    Subclasses supply ``synth`` (shaping without the tail), ``mf`` and
    ``cascade`` (the shaping/matched-filter cascade at symbol lags).
    """

    def shape(self, rail) -> np.ndarray:
        return self.synth(np.concatenate([rail, self.tail]))

    def template(self, train) -> np.ndarray:
        """Clean matched-filter output of a training rail shaped without
        the tail, from its symbol 0 on. The offset frame_sync finds against
        it is the symbol-0 sample of the received stream."""
        return self.mf(self.synth(train))[
            self.lead:self.lead + train.size * self.n_c]


class _ChaoticPulse(Pulse):
    def __init__(self, n_c: int):
        self.n_c = n_c
        self.params = WaveformParams()
        self.mft = rx.matched_filter_taps(n_c, self.params)
        self.lead = 0
        self.tail = np.resize(np.array([1.0, -1.0]), self.params.n_p)
        self.energy = float(np.dot(self.mft.kernel, self.mft.kernel))

    def synth(self, symbols) -> np.ndarray:
        return synth_waveform(symbols, self.n_c, self.params, strict=False)

    def mf(self, stream) -> np.ndarray:
        return rx.matched_filter(stream, self.mft)

    def cascade(self, lags) -> np.ndarray:
        return th.response_r(lags.astype(float))


class _RrcPulse(Pulse):
    def __init__(self, n_c: int):
        self.n_c = n_c
        self.filt = bl.rrc_taps(bl.DEFAULT_ROLLOFF, bl.DEFAULT_SPAN, n_c)
        self.lead = self.filt.span * n_c
        self.tail = np.empty(0)
        self.energy = float(np.dot(self.filt.taps, self.filt.taps))

    def synth(self, symbols) -> np.ndarray:
        return bl.rrc_shape(symbols, self.filt)

    def mf(self, stream) -> np.ndarray:
        return bl.rrc_matched_filter(stream, self.filt)

    def cascade(self, lags) -> np.ndarray:
        reach = int(np.max(np.abs(lags)))
        return self.filt.symbol_cascade(reach)[lags + reach]


@lru_cache(maxsize=None)
def pulse_for(name: str, n_c: int) -> Pulse:
    """The pulse of a method (chaotic-*, theory-*, rrc-*) or of a waveform
    family ("chaotic", "rrc")."""
    family = name.split("-")[0]
    if family in ("chaotic", "theory"):
        return _ChaoticPulse(n_c)
    if family == "rrc":
        return _RrcPulse(n_c)
    raise ValueError(f"unknown waveform family {name!r}")


def waveform_energy_per_bit(family: str, n_c: int) -> float:
    """Expected sample-sum transmit energy per rail bit (see Pulse)."""
    return pulse_for(family, n_c).energy


def sigma_w_chaotic(sigma: float, n_c: int) -> float:
    """Noise standard deviation at the chaotic matched-filter output, from
    the realized (truncated) receive kernel rather than the ideal one."""
    return sigma * math.sqrt(waveform_energy_per_bit("chaotic", n_c)) / n_c


def _frame_streams(master_seed: int, frame_idx: int):
    ss = np.random.SeedSequence([master_seed, frame_idx])
    content, chan, noise = ss.spawn(3)
    return (np.random.default_rng(content), np.random.default_rng(chan),
            np.random.default_rng(noise))


def _preset(config: ExperimentConfig, quasi: bool, sweep: str):
    """The config's channel preset, which must be quasi-static for a quasi
    sweep and static otherwise."""
    preset = ch.get_preset(config.channel)
    if quasi != isinstance(preset, ch.QuasiStaticModel):
        names = [*ch.QUASI_PRESETS, "quasi"] if quasi else [*ch.STATIC_PRESETS]
        kind = "static" if quasi else "quasi-static"
        raise ValueError(
            f"channel = {config.channel!r} is {kind}; {sweep} needs "
            f"{', '.join(names[:-1])} or {names[-1]}")
    return preset


# ---------------------------------------------------------------- frames ---

class _Context:
    """Immutable per-sweep state. It is built in the parent before any
    frame runs, so a config the pipeline cannot run fails there, and it is
    installed as is in every worker."""

    def __init__(self, config: ExperimentConfig, quasi: bool):
        self.config = config
        n_c = config.n_c
        try:
            self.pulse = pulse = pulse_for(config.method, n_c)
        except ValueError as exc:
            raise ValueError(f"n_c = {n_c} does not suit {config.method}: "
                             f"{exc}") from None
        self.sigmas = np.array([ch.calibrate_noise(db, pulse.energy)
                                for db in config.ebn0_grid])
        self.channel = _preset(config, quasi, "run_quasi_static" if quasi
                               else "run_static_sweep")
        if not quasi:
            delays, gains = self.channel.delays, np.array(self.channel.gains)
            self.estimate = rx.ChannelEstimate(delays, gains, 0.0)
            # channel and noise level are known, so the equalizer of each
            # grid point is fixed across frames
            self.eqs = [None] * len(self.sigmas)
            if config.method == "rrc-mmse":
                self.eqs = [bl.design_mmse(rx.ChannelEstimate(
                    delays, gains, float(s * s))) for s in self.sigmas]
            return
        self.layout = tx.FrameLayout(config.n_training_bits, config.n_data_bits)
        self.t_i, self.t_q = tx.qpsk_map(tx.gen_training(self.layout))
        self.n_sym = self.layout.total // 2
        try:
            self.design = rx.build_ls_design(np.stack([self.t_i, self.t_q]),
                                             _MAX_DELAY, _LAG_BACK)
        except ValueError as exc:
            raise ValueError(f"n_training_bits = {config.n_training_bits} "
                             f"cannot estimate the channel: {exc}") from None
        lags = self.design.lags[:, None] - np.arange(_MAX_DELAY + 1)[None, :]
        self.cascade = pulse.cascade(lags)
        B = self.design.design @ self.cascade
        self.proj = B @ np.linalg.pinv(B)
        self.template = pulse.template(self.t_i)
        self.search_len = ((_PAD_SYMBOLS[1] + 4) * n_c + pulse.lead
                           + self.template.size)


_CTX: Optional[_Context] = None


def _install(ctx: _Context):
    global _CTX
    _CTX = ctx


def _receive(ctx: _Context, rail, channel, pad: int, rng_noise):
    """Matched-filter outputs of one rail, shaped, propagated and delayed by
    ``pad`` samples, and of unit-variance noise over the same span."""
    v = ch.propagate(ctx.pulse.shape(rail), channel, ctx.config.n_c)
    sig = np.concatenate([np.zeros(pad), v])
    return (ctx.pulse.mf(sig),
            ctx.pulse.mf(rng_noise.standard_normal(sig.size)))


def _count_errors(ctx: _Context, ys, sent, estimate, eq, n_train: int) -> int:
    """Decide both rails at one grid point and count the rail decisions in
    error past the first n_train (training) symbols. Error rate is counted
    per rail decision: each rail carries one antipodal bit per symbol,
    which is what the closed-form error probabilities describe."""
    method = ctx.config.method
    n_err = 0
    for y, rail in zip(ys, sent):
        if method == "chaotic-opt":
            # genie: thresholds from the true symbols including the shaping
            # tail, so every ISI term is cancelled exactly
            full = np.concatenate([rail, ctx.pulse.tail])
            theta = rx.threshold_optimal(full, estimate)
            dec = rx.decide(y, theta[: y.size])
        elif method == "chaotic-subopt":
            dec = rx.decode_suboptimal(y, rail[:n_train], estimate)
        elif method == "rrc-mmse":
            dec = rx.decide(bl.apply_equalizer(y, eq), 0.0)
        else:
            dec = rx.decide(y, 0.0)
        n_err += int(np.count_nonzero(dec[n_train:] != rail[n_train:]))
    return n_err


# ---------------------------------------------------------------- static ---

def _static_frame(frame_idx: int) -> np.ndarray:
    ctx = _CTX
    cfg = ctx.config
    rng_content, _, rng_noise = _frame_streams(cfg.master_seed, frame_idx)
    bits = rng_content.integers(0, 2, cfg.n_data_bits)
    sent = tx.qpsk_map(bits)
    rails = [[rx.sample_symbols(y, ctx.pulse.lead, cfg.n_c, rail.size)
              for y in _receive(ctx, rail, ctx.channel, 0, rng_noise)]
             for rail in sent]
    errors = np.zeros(len(cfg.ebn0_grid), dtype=np.int64)
    for p, sigma in enumerate(ctx.sigmas):
        ys = [s0 + sigma * sw for s0, sw in rails]
        errors[p] = _count_errors(ctx, ys, sent, ctx.estimate, ctx.eqs[p], 0)
    return errors


def run_static_sweep(config: ExperimentConfig, jobs: int = 1) -> List[BerRecord]:
    """Known-channel Monte Carlo over the Eb/N0 grid.

    The receiver is fed the true channel parameters (the estimator is
    bypassed) and frames run until at least ``trials`` payload bits per
    grid point. chaotic-opt requires genie=True since the exact threshold
    needs the transmitted symbols themselves.
    """
    if config.method not in SIM_METHODS:
        raise ValueError(f"run_static_sweep cannot run {config.method!r}")
    if config.method == "chaotic-opt" and not config.genie:
        raise ValueError("chaotic-opt needs genie=True: the optimal "
                         "threshold uses the transmitted symbols")
    n_frames = -(-config.trials // config.n_data_bits)
    errors = np.sum(_map_frames(_static_frame, _Context(config, quasi=False),
                                n_frames, jobs), axis=0)
    total_bits = n_frames * config.n_data_bits
    return [BerRecord.from_counts(config.method, config.channel, db,
                                  total_bits, int(errors[p]))
            for p, db in enumerate(config.ebn0_grid)]


# ---------------------------------------------------------------- quasi ----

def _sync_offset(ctx: _Context, y_i, y_q):
    """Coarse correlation peak, snapped to the symbol grid and refined by
    the pooled path-model residual; returns (offset, obs) or None.

    Among grid candidates whose residual is within a factor two of the
    best, the largest offset wins: an offset early by one symbol shows up
    as every path delay shifted up by one, which still fits; an offset
    late by one needs delay -1 and leaves the training energy unexplained.
    The winner must still explain at least half of the observed training
    energy.
    """
    n_c = ctx.config.n_c
    sl = slice(0, min(ctx.search_len, y_i.size))
    coarse = rx.frame_sync(y_i[sl], ctx.template).offset
    base = int(round(coarse / n_c)) * n_c
    rows, span = ctx.design.rows, ctx.t_i.size * n_c
    results = {}
    for step in _SYNC_GRID_STEPS:
        o = base + step * n_c
        if o < 0 or o + span > y_i.size:
            continue
        obs = np.concatenate([y_i[o:o + span:n_c][rows],
                              y_q[o:o + span:n_c][rows]])
        resid = obs - ctx.proj @ obs
        results[o] = (float(np.dot(resid, resid)), obs)
    if not results:
        return None
    best = min(v[0] for v in results.values())
    good = [o for o, v in results.items() if v[0] <= 2.0 * best + 1e-12]
    o = max(good)
    res, obs = results[o]
    if res > 0.5 * float(np.dot(obs, obs)):
        return None
    return o, obs


def _quasi_frame(frame_idx: int):
    ctx = _CTX
    cfg = ctx.config
    n_c = cfg.n_c
    rng_content, rng_chan, rng_noise = _frame_streams(cfg.master_seed, frame_idx)
    bits = rng_content.integers(0, 2, cfg.n_data_bits)
    frame = tx.build_frame(bits, ctx.layout)
    gamma = ch.draw_gamma(ctx.channel, rng_chan)
    pad = int(rng_chan.integers(_PAD_SYMBOLS[0], _PAD_SYMBOLS[1] + 1)) * n_c
    spec = ch.MultipathSpec.from_gamma(gamma, ctx.channel.delays)
    true_offset = pad + ctx.pulse.lead
    streams = [_receive(ctx, rail, spec, pad, rng_noise)
               for rail in (frame.i_syms, frame.q_syms)]

    n_points = len(cfg.ebn0_grid)
    errors = np.zeros(n_points, dtype=np.int64)
    counted = np.zeros(n_points, dtype=np.int64)
    failures = np.zeros(n_points, dtype=np.int64)
    rms = np.full(n_points, np.nan)
    true_dense = np.zeros(_MAX_DELAY + 1)
    true_dense[np.array(spec.delays, dtype=int)] = spec.gains

    for p, sigma in enumerate(ctx.sigmas):
        y_i = streams[0][0] + sigma * streams[0][1]
        y_q = streams[1][0] + sigma * streams[1][1]
        picked = _sync_offset(ctx, y_i, y_q)
        est = None
        offset_ok = False
        if picked is not None:
            offset, obs = picked
            try:
                est = rx.estimate_channel_ls(obs, ctx.design, ctx.cascade)
            except np.linalg.LinAlgError:
                est = None
            offset_ok = offset == true_offset
        if est is None or not offset_ok:
            failures[p] = 1
            if cfg.failure_policy == "pessimistic":
                errors[p] = cfg.n_data_bits
                counted[p] = cfg.n_data_bits
            continue
        dense = np.zeros(_MAX_DELAY + 1)
        dense[np.array(est.delays, dtype=int)] = est.gains
        rms[p] = float(np.sqrt(np.mean((dense - true_dense) ** 2)))
        eq = bl.design_mmse(est) if cfg.method == "rrc-mmse" else None
        ys = [rx.sample_symbols(s_mf + sigma * w_mf, offset, n_c, ctx.n_sym)
              for s_mf, w_mf in streams]
        errors[p] = _count_errors(ctx, ys, (frame.i_syms, frame.q_syms),
                                  est, eq, ctx.t_i.size)
        counted[p] = cfg.n_data_bits
    return errors, counted, failures, rms


def run_quasi_static(config: ExperimentConfig, jobs: int = 1,
                     stats: Optional[dict] = None) -> List[BerRecord]:
    """Estimated-channel Monte Carlo: per frame, draw gamma, delay the
    frame by a random whole-symbol pad, re-acquire timing by correlation,
    LS-estimate the channel from the training block, decode.

    Methods: chaotic-subopt (decision feedback) or rrc-mmse. Frames that
    fail sync or estimation are counted with every payload bit in error
    under the default pessimistic policy, or excluded from the counts (and
    reported) under failure_policy="separate". Pass a dict as ``stats`` to
    receive per-point failure counts and estimation RMS summaries.
    """
    if config.method not in ("chaotic-subopt", "rrc-mmse"):
        raise ValueError(
            f"run_quasi_static supports chaotic-subopt and rrc-mmse, "
            f"not {config.method!r}")
    if config.genie:
        raise ValueError("genie decoding is incompatible with channel estimation")
    results = _map_frames(_quasi_frame, _Context(config, quasi=True),
                          config.frames, jobs)
    errors, counted, failures, rms_all = (np.array(r) for r in zip(*results))
    errors, counted, failures = (np.sum(a, axis=0)
                                 for a in (errors, counted, failures))
    if stats is not None:
        per_point = []
        for p, db in enumerate(config.ebn0_grid):
            col = rms_all[:, p]
            ok = col[np.isfinite(col)]
            per_point.append({
                "ebn0_db": float(db),
                "frames": config.frames,
                "failed_frames": int(failures[p]),
                "excluded_bits": int(config.frames * config.n_data_bits
                                     - counted[p]),
                "est_rms_mean": float(np.mean(ok)) if ok.size else float("nan"),
                "est_rms_p90": float(np.percentile(ok, 90.0)) if ok.size
                               else float("nan"),
                "est_rms_max": float(np.max(ok)) if ok.size else float("nan"),
            })
        stats["per_point"] = per_point
        stats["failure_policy"] = config.failure_policy
    records = []
    for p, db in enumerate(config.ebn0_grid):
        if counted[p] == 0:
            raise RuntimeError(
                f"every frame failed sync/estimation at {db} dB; "
                "no bits were counted")
        records.append(BerRecord.from_counts(
            config.method, config.channel, db, int(counted[p]),
            int(errors[p])))
    return records


# ---------------------------------------------------------------- theory ---

def run_theory_curves(config: ExperimentConfig) -> List[BerRecord]:
    """Closed-form BER over the grid, with sigma_W calibrated exactly the
    way the simulation calibrates its noise (measured waveform energy and
    measured receive-kernel energy)."""
    if config.method not in THEORY_METHODS:
        raise ValueError(f"run_theory_curves cannot run {config.method!r}")
    preset = _preset(config, False, "run_theory_curves")
    eb = waveform_energy_per_bit("chaotic", config.n_c)
    P = th.compute_signal_power(preset)
    records = []
    for db in config.ebn0_grid:
        sigma = ch.calibrate_noise(db, eb)
        sw = sigma_w_chaotic(sigma, config.n_c)
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


def parse_csv(path: str) -> List[BerRecord]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path} does not start with the expected header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        records.append(BerRecord(parts[0], parts[1], float(parts[2]),
                                 int(parts[3]), int(parts[4]),
                                 float(parts[5]), float(parts[6])))
    return records


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


def _map_frames(worker, ctx: _Context, n_frames: int, jobs: int):
    if not (isinstance(jobs, (int, np.integer)) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if jobs == 1:
        _install(ctx)
        return [worker(i) for i in range(n_frames)]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_install,
                             initargs=(ctx,)) as pool:
        chunk = max(1, n_frames // (4 * jobs))
        return list(pool.map(worker, range(n_frames), chunksize=chunk))
