"""Monte Carlo harness: config validation, records, sweeps, reports."""

import contextlib
import functools
import itertools
import json
import math
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from oracles import (BER_SUB_TABLE, acquire_loop,  # noqa: E402
                     composite_response, decide, frame_reference,
                     genie_response, isi_feedback_coeffs, parse_csv,
                     waveform_path)

import chaosmodem.channel as ch  # noqa: E402
import chaosmodem.harness as H  # noqa: E402
import chaosmodem.rxchain as rx  # noqa: E402
import chaosmodem.theory as th  # noqa: E402


def small_static(method="chaotic-subopt", channel="static2", **kw):
    base = dict(method=method, channel=channel, ebn0_grid=(4.0, 8.0),
                trials=20000, n_data_bits=2000, master_seed=77)
    base.update(kw)
    return H.ExperimentConfig(**base)


def small_quasi(method="chaotic-subopt", channel="quasi2", **kw):
    base = dict(method=method, channel=channel, ebn0_grid=(6.0,), frames=12,
                n_data_bits=1024, master_seed=77)
    base.update(kw)
    return H.ExperimentConfig(**base)


def test_config_validation():
    cfg = small_static()
    assert cfg.ebn0_grid == (4.0, 8.0)
    with pytest.raises(ValueError):
        small_static(method="chaotic-fast")
    with pytest.raises(ValueError):
        small_static(channel="static9")
    with pytest.raises(ValueError):
        small_static(ebn0_grid=())
    with pytest.raises(ValueError):
        small_static(ebn0_grid=(4.0, float("inf")))
    with pytest.raises(ValueError):
        small_static(trials=0)
    with pytest.raises(ValueError):
        small_static(n_data_bits=2001)
    with pytest.raises(ValueError):
        small_static(n_training_bits=-2)
    with pytest.raises(ValueError):
        small_static(n_c=1)
    with pytest.raises(ValueError):
        small_static(failure_policy="ignore")
    # bools are ints to Python, but never a count, a rate or a seed
    for key in ("trials", "n_c", "n_training_bits", "n_data_bits", "frames",
                "master_seed"):
        with pytest.raises(ValueError, match=key):
            small_static(**{key: True})
    with pytest.raises(ValueError, match="genie"):
        small_static(method="chaotic-opt", genie=1)
    for grid in (("a",), 5.0, "5", (None,), (True, False)):
        with pytest.raises(ValueError, match="ebn0_grid"):
            small_static(ebn0_grid=grid)


@pytest.mark.parametrize("method", ("chaotic-subopt", "rrc-mmse",
                                    "theory-opt"))
def test_extreme_ebn0_names_its_key(method):
    # a grid value whose noise sigma would be 0 or not finite fails in the
    # config, naming ebn0_grid; the widest finite ones still build
    for grid in ((4.0, -4000.0), (4000.0,), (-1e300,), (1e300,)):
        with pytest.raises(ValueError, match="ebn0_grid"):
            small_static(method=method, ebn0_grid=grid)
    small_static(method=method, ebn0_grid=(-3000.0, 3000.0))


def test_string_keys_must_be_strings():
    for key in ("method", "channel", "failure_policy"):
        with pytest.raises(ValueError, match=f"^{key} must be a string"):
            small_static(**{key: ["static2"]})


@pytest.mark.parametrize("key", ("n_training_bits", "n_data_bits"))
def test_odd_bit_count_names_its_key(key):
    with pytest.raises(ValueError, match=f"^{key} must be even for QPSK "
                                         f"framing, got 255$"):
        small_static(**{key: 255})


def test_genie_only_for_optimal():
    assert small_static(method="chaotic-opt", genie=True).genie
    for method in ("chaotic-subopt", "chaotic-zero", "rrc-mmse", "rrc-noeq",
                   "theory-opt"):
        with pytest.raises(ValueError):
            small_static(method=method, genie=True)
    # the optimal threshold uses the transmitted symbols
    with pytest.raises(ValueError, match="^genie must be true exactly for "
                                         "chaotic-opt, got genie = False"):
        small_static(method="chaotic-opt")


def test_ber_record_consistency():
    r = H.BerRecord.from_counts("rrc-mmse", "static2", 6.0, 1000, 13)
    assert r.ber == 13 / 1000
    assert abs(r.ci95 - 1.96 * math.sqrt(0.013 * 0.987 / 1000)) < 1e-15
    with pytest.raises(ValueError):
        H.BerRecord("rrc-mmse", "static2", 6.0, 1000, 13, 0.014, r.ci95)
    with pytest.raises(ValueError):
        H.BerRecord("rrc-mmse", "static2", 6.0, 1000, 13, r.ber, 0.5 * r.ci95)
    with pytest.raises(ValueError):
        H.BerRecord.from_counts("rrc-mmse", "static2", 6.0, 1000, 1001)
    with pytest.raises(ValueError, match="bits"):
        H.BerRecord.from_counts("rrc-mmse", "static2", 6.0, 0, 0)
    a = H.BerRecord.analytic("theory-opt", "static2", 6.0, 0.0032)
    assert a.bits == 0 and a.errors == 0 and a.ci95 == 0.0


def test_energy_per_bit():
    eb = H.pulse_for("chaotic", 8).energy
    assert abs(eb - 8 * 1.3433272444) / eb < 1e-4
    assert abs(H.pulse_for("rrc", 8).energy - 1.0) < 1e-12
    with pytest.raises(ValueError):
        H.pulse_for("ofdm", 8)
    # the receive kernel the static frames read unit noise through has
    # energy E / n_c^2, so the theory curves' sigma_w = sigma sqrt(E) / n_c
    ctx = H._Context(small_static(), quasi=False)
    kernel = ctx.mf_kernel.ravel()
    assert abs(np.dot(kernel, kernel) - eb / 64) < 1e-12


def test_frame_streams_reproducible_and_distinct():
    a = H._frame_streams(5, 0, H._CONTENT)[0].integers(0, 2, 64)
    b = H._frame_streams(5, 0, H._CONTENT)[0].integers(0, 2, 64)
    c = H._frame_streams(5, 1, H._CONTENT)[0].integers(0, 2, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # each stream is the matching child of SeedSequence.spawn(3), draw for
    # draw, whichever streams are asked for and in whatever order
    for seed, idx in ((5, 0), (20260822, 7), (0, 123456)):
        children = np.random.SeedSequence([seed, idx]).spawn(3)
        built = H._frame_streams(seed, idx, H._NOISE, H._CONTENT, H._CHANNEL)
        for k, rng in zip((H._NOISE, H._CONTENT, H._CHANNEL), built):
            want = np.random.default_rng(children[k])
            assert np.array_equal(rng.standard_normal(200),
                                  want.standard_normal(200))
            assert np.array_equal(rng.integers(0, 2, 300),
                                  want.integers(0, 2, 300))


def test_static_sweep_accounting():
    recs = H.run_static_sweep(small_static(), jobs=1)
    assert [r.ebn0_db for r in recs] == [4.0, 8.0]
    for r in recs:
        assert r.method == "chaotic-subopt" and r.channel == "static2"
        assert r.bits == 20000  # ceil(20000/2000) frames x 2000 bits
        assert 0 <= r.errors <= r.bits
    assert recs[0].errors > recs[1].errors


def check_sampled_frames(family, n_c, channels):
    # a frame computes only the symbol-rate samples of its rails; they must
    # be the waveform path's samples at the true offset down to rounding,
    # from symbol 0 on (where the start-edge block acts), for the known
    # channel at pad 0 and for random path gains at both extreme pads, the
    # two frames of each case in one block, frames shorter than the edge
    # block or the sync window included; a quasi frame's full-rate sync
    # window of rail I must be the full-rate stream bitwise, so sync sees
    # the same bytes; and each frame's noise generator must be left where
    # the waveform path leaves it
    method = "chaotic-subopt" if family == "chaotic" else "rrc-mmse"
    rng = np.random.default_rng(n_c)
    for channel in channels:
        quasi = channel.startswith("quasi")
        for n_bits in (2, 8, 3840):
            try:
                ctx = H._Context(H.ExperimentConfig(
                    method, channel, (6.0,), n_data_bits=n_bits, n_c=n_c), quasi)
            except ValueError:
                assert family == "rrc" and n_c == 2  # RRC misses Nyquist
                continue
            n = ctx.train.shape[1] + n_bits // 2
            assert quasi or n_bits > 8 or n < ctx.edge.shape[0]
            assert ctx.block >= 2
            pads = [p * n_c for p in H._PAD_SYMBOLS] if quasi else [0, 0]
            specs = (rng.uniform(-1.0, 1.0, (2, ctx.delay + 1)) if quasi
                     else np.array([ctx.channel] * 2))
            sent = rng.choice([-1.0, 1.0], (2, 2, n))
            fast = [np.random.default_rng(9 + f) for f in range(2)]
            slow = [np.random.default_rng(9 + f) for f in range(2)]
            sig, noise, draws = ctx.sampled_frames(sent, specs, pads, fast)
            for f, pad in enumerate(pads):
                ref = np.array([waveform_path(ctx.pulse, rail, specs[f], pad,
                                              slow[f])
                                for rail in sent[f]]).transpose(1, 0, 2)
                for got, want in zip((sig[f], noise[f]), ref):
                    want = want[:, pad + ctx.pulse.lead::n_c][:, :n]
                    assert np.max(np.abs(got - want)) < 1e-12
                if quasi:
                    # exactly what frame sync reads, no sample more
                    win = min(ctx.search_len, ref.shape[-1])
                    for got, want in zip(ctx.sync_window(
                            sent[f, 0], specs[f], pad, draws[f][0]), ref[:, 0]):
                        assert np.array_equal(got, want[:win])
                assert fast[f].standard_normal() == slow[f].standard_normal()


@pytest.mark.parametrize("family,n_c", [(f, n) for f in ("chaotic", "rrc")
                                         for n in (2, 3, 4, 6, 8)])
def test_sampled_frame_matches_waveform_path(family, n_c):
    check_sampled_frames(family, n_c, ("static2", "static3"))


@pytest.mark.parametrize("family,n_c", [(f, n) for f in ("chaotic", "rrc")
                                         for n in (2, 3, 4, 6, 8)])
def test_sampled_quasi_frame_matches_waveform_path(family, n_c):
    check_sampled_frames(family, n_c, ("quasi2", "quasi3"))


def test_sampled_frame_after_a_longer_pad():
    # the noise buffer is shared by a context's blocks; a frame after one
    # with a longer pad in its row leaves that frame's draw in front of its
    # own, where the matched filter reads zeros. Its outputs and the whole
    # buffer row are those of a fresh context
    cfg = H.ExperimentConfig("chaotic-subopt", "quasi3", (6.0,), n_c=4)
    used, fresh = H._Context(cfg, True), H._Context(cfg, True)
    rng = np.random.default_rng(5)
    spec = ch.gains_from_gamma(ch.draw_gamma(used.channel, rng),
                               used.channel.n_paths)[None]
    sent = rng.choice([-1.0, 1.0], (1, 2, used.train.shape[1]
                                    + cfg.n_data_bits // 2))
    pad = [2 * cfg.n_c]
    used.sampled_frames(sent, spec, [20 * cfg.n_c], [np.random.default_rng(1)])
    got = used.sampled_frames(sent, spec, pad, [np.random.default_rng(2)])
    want = fresh.sampled_frames(sent, spec, pad, [np.random.default_rng(2)])
    for a, b in zip(got[:2] + (got[2][0], used.noise_buffer[0]),
                    want[:2] + (want[2][0], fresh.noise_buffer[0])):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method,n_c", [("chaotic-subopt", 8),
                                        ("rrc-noeq", 3)])
def test_noise_read_must_end_within_the_draw(monkeypatch, own_pool,
                                             method, n_c):
    # the symbol-rate noise read ends a fixed distance after the pad; a
    # context whose draw is shorter than that fails when it is built, in
    # the parent of a pooled sweep before any pool starts, and one whose
    # draw is just long enough does not
    cfg = small_static(method=method, n_c=n_c)
    ctx = H._Context(cfg, False)
    n = cfg.n_data_bits // 2
    n_rows = ctx.mf_kernel.shape[0]
    need = ctx.pulse.lead + (n + n_rows - 1) * n_c - ctx.mf_back
    assert ctx.noise_size >= need
    probe = H._probe

    def probe_short_by(k):  # the probe frame's draw k samples shorter
        def short(*args):
            *arrays, size = probe(*args)
            return (*arrays, size - k)
        monkeypatch.setattr(H, "_probe", short)

    probe_short_by(ctx.noise_size - need + 1)
    with pytest.raises(RuntimeError, match="1 samples past"):
        H._Context(cfg, False)
    with pytest.raises(RuntimeError, match="1 samples past"):
        H.run_static_sweep(cfg, jobs=2)
    assert H._POOL is None
    probe_short_by(ctx.noise_size - need)
    ctx = H._Context(cfg, False)
    H._block(ctx, range(1))
    assert ctx.noise_buffer.shape[-1] == (ctx.mf_back + need
                                          + H._PAD_SYMBOLS[1] * n_c)


@pytest.mark.parametrize("method", ("chaotic-subopt", "rrc-mmse"))
@pytest.mark.parametrize("quasi", (False, True))
def test_frame_reuses_buffers(method, quasi):
    # full blocks from frame 3 and from frame 0, then a short block of frame
    # 3 alone, on one context whose buffers the earlier blocks left dirty,
    # each give what a fresh context gives
    cfg = (small_quasi(method=method, ebn0_grid=(4.0, 6.0, 8.0))
           if quasi else small_static(method=method, n_data_bits=3840))
    ctx = H._Context(cfg, quasi)
    assert ctx.block >= 2
    blocks = (range(3, 3 + ctx.block), range(ctx.block), range(3, 4))
    got = [H._block(ctx, b) for b in blocks]
    for b, block in zip(blocks, got):
        for a, want in zip(block, H._block(H._Context(cfg, quasi), b)):
            assert a.shape == (len(b), len(cfg.ebn0_grid))
            assert a.tobytes() == want.tobytes()


def test_decoder_inputs_outlive_their_block(monkeypatch):
    # every block hands the decoder observations of its own, which no later
    # block of the sweep overwrites
    calls = []
    decode = rx.decode_suboptimal

    def keep(y, *args, **kw):
        calls.append((y, y.copy()))
        return decode(y, *args, **kw)

    monkeypatch.setattr(rx, "decode_suboptimal", keep)
    cfg = small_static(ebn0_grid=(6.0, 8.0), n_data_bits=3840,
                       trials=6 * 3840)
    assert H._Context(cfg, False).block == 2
    H.run_static_sweep(cfg, jobs=1)
    assert len(calls) == 3
    for y, copy in calls:
        assert y.tobytes() == copy.tobytes()


def harness_frames(ctx, frames):
    """What the harness computes for the given frames of a context, as one
    block."""
    assert len(frames) <= ctx.block
    return list(zip(*H._block(ctx, frames)))


# (method, preset, n_c) of the whole-frame check: every simulated method on
# both static presets and both estimated-channel methods on both quasi
# presets, at every n_c the pulse allows (RRC misses Nyquist at 2)
FRAME_CASES = [("chaotic-opt", "static2", 2), ("chaotic-opt", "static3", 6),
               ("chaotic-subopt", "static2", 3),
               ("chaotic-subopt", "static3", 8),
               ("chaotic-zero", "static2", 4), ("chaotic-zero", "static3", 2),
               ("rrc-mmse", "static2", 6), ("rrc-mmse", "static3", 3),
               ("rrc-noeq", "static2", 8), ("rrc-noeq", "static3", 4),
               ("chaotic-subopt", "quasi2", 4), ("chaotic-subopt", "quasi3", 2),
               ("rrc-mmse", "quasi2", 8), ("rrc-mmse", "quasi3", 3)]


def test_frame_matches_reference():
    # every frame the harness computes gives frame_reference's errors,
    # counted bits and failures exactly, and its estimate RMS to rounding
    # with the same NaN positions: known-channel frames at points with
    # errors, estimated-channel frames at points that lose sync and points
    # that keep it, under both failure policies
    seen = {"errors": 0, "failed": 0, "decoded": 0}
    for method, preset, n_c in FRAME_CASES:
        quasi = preset.startswith("quasi")
        policies = ("pessimistic", "separate") if quasi else ("pessimistic",)
        for policy in policies:
            cfg = H.ExperimentConfig(
                method, preset, (-6.0, -1.0, 4.0) if quasi else (-2.0, 4.0),
                n_data_bits=256, n_c=n_c, master_seed=n_c,
                genie=method == "chaotic-opt", failure_policy=policy)
            ctx = H._Context(cfg, quasi)
            frames = range(3)
            for i, got in zip(frames, harness_frames(ctx, frames)):
                errors, counted, failures, rms = frame_reference(ctx, i)
                assert got[0].tolist() == errors.tolist()
                assert got[1].tolist() == counted.tolist()
                assert got[2].tolist() == failures.tolist()
                assert np.array_equal(np.isnan(got[3]), np.isnan(rms))
                assert np.all(np.abs(got[3] - rms)[~np.isnan(rms)] <= 1e-12)
                seen["errors"] += int(errors.sum())
                seen["failed"] += int(failures.sum())
                seen["decoded"] += int(np.sum(failures == 0))
    assert all(seen.values()), seen


def assert_same_receiver(got, want):
    # exactly the same decoded points and failures; feedback rows or
    # equalizer taps and RMS within 1e-12, the RMS with the same NaN
    # positions
    decoded, receiver, failures, rms = got
    w_decoded, w_receiver, w_failures, w_rms = want
    assert list(decoded) == list(w_decoded)
    assert receiver.shape == w_receiver.shape
    assert np.all(np.abs(receiver - w_receiver) <= 1e-12)
    assert failures.dtype == w_failures.dtype
    assert failures.tobytes() == w_failures.tobytes()
    assert np.array_equal(np.isnan(rms), np.isnan(w_rms))
    assert np.all(np.abs(rms - w_rms)[~np.isnan(rms)] <= 1e-12)


@pytest.mark.parametrize("method", ("chaotic-subopt", "rrc-mmse"))
@pytest.mark.parametrize("channel", ("quasi2", "quasi3"))
@pytest.mark.parametrize("n_c", (8, 6, 4))
def test_acquire_matches_per_point_loop(method, channel, n_c):
    # the batched acquisition must decode and fail exactly the points the
    # per-point loop does, with its receivers to rounding (the loop forms
    # each point's streams at full rate on both rails and solves by
    # lstsq): on grids where every point keeps its timing and where some
    # lose it (the failure-policy grid), at the extreme pads and at pad 0,
    # where grid candidates fall off the window's start; and on frames
    # whose every point fails: rails of zeros in noise, and a silent
    # window, whose correlation peak sits at offset 0
    rng = np.random.default_rng([n_c, len(channel), len(method)])
    seen = {"failed": 0, "all_failed": 0, "decoded": 0, "off_edge": 0}
    for grid in ((5.0, 6.0, 7.0, 8.0), (-4.0, -3.0, -2.0, -1.0)):
        ctx = H._Context(H.ExperimentConfig(method, channel, grid,
                                            n_data_bits=64, n_c=n_c), True)
        for case in (0, 2, 20, 2, 9, 20, "noise", "silent"):
            pad = (2 if isinstance(case, str) else case) * n_c
            spec = ch.gains_from_gamma(ch.draw_gamma(ctx.channel, rng),
                                       ctx.channel.n_paths)
            sent = np.concatenate(
                [ctx.train, rng.choice([-1.0, 1.0], (2, 32))], axis=1)
            if isinstance(case, str):
                sent[:] = 0.0
            sig, noise, (w,) = ctx.sampled_frames(sent[None], spec[None],
                                                  [pad], [rng])
            sig, noise = sig[0], noise[0]
            if case == "silent":
                w[:] = noise[:] = 0.0
            failures, rms, gains, noise_var = H._acquire(ctx, sent, spec, pad,
                                                         sig, noise, w)
            got = (np.flatnonzero(failures == 0),
                   H._receiver(ctx, gains, noise_var), failures, rms)
            assert_same_receiver(got, acquire_loop(ctx, sent, spec, pad, w))
            seen["failed"] += int(failures.sum())
            seen["all_failed"] += bool(failures.all())
            seen["decoded"] += len(got[0])
            win_sig, win_noise = ctx.sync_window(sent[0], spec, pad, w[0])
            base = np.rint(rx.frame_sync(win_sig, ctx.template, win_noise,
                                         ctx.sigmas) / n_c)
            seen["off_edge"] += int(np.sum(base + min(H._SYNC_GRID_STEPS) < 0))
    assert all(seen.values()), seen


def test_feedback_rows_match_isi_feedback_coeffs():
    # _receiver sums the per-context table of the pulse cascade path by
    # path over each gains row and gives isi_feedback_coeffs bitwise for
    # every delay subset of the candidate set, each row zero-filled past
    # its own decision window, as (rows, 1, w) for the decoder to
    # broadcast over the rails
    ctx = H._Context(small_quasi(), True)
    rng = np.random.default_rng(11)
    subsets = [d for k in range(1, rx.MAX_DELAY + 2)
               for d in itertools.combinations(range(rx.MAX_DELAY + 1), k)]
    assert len(subsets) == 15
    for _ in range(20):
        gains = np.zeros((len(subsets), rx.MAX_DELAY + 1))
        for row, d in zip(gains, subsets):
            row[list(d)] = rng.uniform(-1.5, 1.5, len(d))
        feedback = H._receiver(ctx, gains, np.full(len(subsets), 0.1))
        assert feedback.shape[:2] == (len(subsets), 1)
        for row, d, g in zip(feedback[:, 0], subsets, gains):
            want = isi_feedback_coeffs(g, 5 + max(d))
            padded = np.pad(want, (0, feedback.shape[2] - want.size))
            assert row.tobytes() == padded.tobytes()
    # a row without a path keeps the widest window, all zeros
    feedback = H._receiver(ctx, np.zeros((1, rx.MAX_DELAY + 1)), np.zeros(1))
    assert feedback.shape == (1, 1, 5 + rx.MAX_DELAY)
    assert not feedback.any()
    # a known channel's row is its preset's, one (1, 1, w) row that every
    # point and rail shares, so every point shares the decoder's first pass
    for preset in ("static2", "static3"):
        row = H._Context(small_static(channel=preset), False).known
        spec = ch.get_preset(preset)
        want = isi_feedback_coeffs(spec, 5 + spec.size - 1)
        assert row.shape == (1, 1, want.size)
        assert row.tobytes() == want.tobytes()


def test_solver_failure_fails_before_any_frame(monkeypatch):
    # the LS solvers are built with the sweep's context (cached per pulse
    # and training length, so the cache is emptied first): a solver that
    # cannot be built stops the sweep before its first frame
    def broken(a):
        raise np.linalg.LinAlgError("SVD did not converge")

    def block(ctx, frames):
        raise AssertionError("a frame ran")

    monkeypatch.setattr(np.linalg, "pinv", broken)
    monkeypatch.setattr(H, "_block", block)
    H._training.cache_clear()
    with pytest.raises(np.linalg.LinAlgError):
        H.run_quasi_static(small_quasi(), jobs=1)


def test_quasi_contexts_share_the_training_model():
    # sweeps of one pulse and training length share the training rails,
    # their LS model and the sync template, whatever their preset, grid
    # and payload
    a = H._Context(small_quasi(), True)
    b = H._Context(small_quasi(channel="quasi3", ebn0_grid=(4.0, 8.0),
                               n_data_bits=2048), True)
    for name in ("train", "design", "template"):
        assert getattr(a, name) is getattr(b, name)


def test_contexts_share_the_probe(monkeypatch):
    # the symbol-rate path depends on the pulse and the preset's longest
    # delay only: sweeps that share both share it, read-only, whatever
    # their kind, grid and payload; the noise draw still follows the frame
    names = ("h_sym", "h_lag", "edge", "mf_kernel", "mf_back")
    a = H._Context(small_static(channel="static3", n_data_bits=512), False)
    b = H._Context(small_quasi(channel="quasi3", ebn0_grid=(4.0, 8.0)), True)
    c = H._Context(small_static(channel="static2"), False)
    for name in names:
        assert getattr(a, name) is getattr(b, name)
    assert a.edge is not c.edge
    assert not any(getattr(a, name).flags.writeable
                   for name in ("h_sym", "edge", "mf_kernel"))
    assert a.noise_size < b.noise_size
    # a pulse is one per waveform family and n_c: every chaotic method
    # shares it, and so its probe, and the theory curves read it too
    ctxs = [H._Context(small_static(method=m, genie=m == "chaotic-opt"), False)
            for m in ("chaotic-opt", "chaotic-subopt", "chaotic-zero")]
    for name in ("pulse", "h_sym", "edge"):
        assert all(getattr(x, name) is getattr(c, name) for x in ctxs)
    assert c.pulse is H.pulse_for("chaotic", 8)
    assert H._Context(small_static(method="rrc-noeq"), False).pulse is (
        H.pulse_for("rrc", 8))
    read = []
    monkeypatch.setattr(H, "pulse_for", lambda *args, f=H.pulse_for:
                        read.append(f(*args)) or read[-1])
    H.run_theory_curves(H.ExperimentConfig("theory-opt", "static2", (6.0,)))
    assert read and all(p is c.pulse for p in read)
    for name in ("ofdm", "chaotic-opt", "rrc-mmse", "theory"):
        with pytest.raises(ValueError, match="unknown waveform family"):
            H.pulse_for(name, 8)


@pytest.mark.parametrize("family", ("chaotic", "rrc"))
@pytest.mark.parametrize("n_c", (8, 4))
def test_shared_arrays_are_read_only(family, n_c):
    # a pulse and its training model are shared by every sweep of a
    # process, so none of their arrays can be written
    pulse = H.pulse_for(family, n_c)
    train, design, template = H._training(pulse, 256)
    arrays = [v for obj in (pulse, design) for v in vars(obj).values()
              if isinstance(v, np.ndarray)] + [train, template]
    assert len(arrays) == 8
    assert not any(a.flags.writeable for a in arrays)


def held_arrays(obj):
    """Every array ``obj`` holds, through tuples, lists and attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from held_arrays(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from held_arrays(v)


@pytest.mark.parametrize("method,quasi", [(m, False) for m in H.SIM_METHODS]
                         + [("chaotic-subopt", True), ("rrc-mmse", True)])
def test_context_arrays_are_read_only(method, quasi):
    # only a context's noise buffer changes after construction: every other
    # array it holds, its own and those it shares (the pulse, the preset,
    # the probe, the training model), is read-only, also after a block ran,
    # and so in the copy a pool worker runs its blocks on, which leaves the
    # buffer behind
    cfg = (small_quasi(method=method) if quasi
           else small_static(method=method, genie=method == "chaotic-opt"))
    ctx = H._Context(cfg, quasi)
    want = H._block(ctx, range(ctx.block))
    assert ctx.noise_buffer is not None
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy.noise_buffer is None
    for a, b in zip(H._block(copy, range(ctx.block)), want):
        assert a.tobytes() == b.tobytes()
    for c in (ctx, copy):
        assert c.noise_buffer is not None
        held = [a for name, v in vars(c).items() if name != "noise_buffer"
                for a in held_arrays(v)]
        assert len(held) >= 8
        assert not [a.shape for a in held if a.flags.writeable]


@pytest.mark.parametrize("n_c", (8, 4))
def test_chaotic_cascade_is_response_r(n_c):
    # the table lookup is the closed form r(t) evaluated on each consumer's
    # lag grid minus path delays 0..3, bitwise: the feedback lags 1..8, the
    # LS lags and the genie lags of a channel reaching MAX_DELAY
    pulse = H.pulse_for("chaotic", n_c)
    delays = np.arange(rx.MAX_DELAY + 1)
    width = rx.decision_window(np.ones(rx.MAX_DELAY + 1))
    for lags in (np.arange(1, width + 1), rx.LAGS,
                 np.arange(-th.DECAY_RADIUS,
                           th.DECAY_RADIUS + rx.MAX_DELAY + 1)):
        got = pulse.cascade(lags)
        assert got.shape == (lags.size, delays.size)
        assert got.tobytes() == th.response_r(
            lags[:, None] - delays).tobytes()


@pytest.mark.parametrize("family", ("chaotic", "rrc"))
def test_cascade_lags_outside_the_table_raise(family):
    # a lag minus a path delay below the reach would wrap to the table's
    # far end, so it raises as one past the other end does; no lag (a
    # block whose every point failed) gives no row
    pulse = H.pulse_for(family, 8)
    reach, top = H._REACH, rx.MAX_DELAY
    assert pulse.table.size == 2 * reach + 1
    assert pulse.cascade(np.array([top - reach, reach])).shape == (2, top + 1)
    for lag in (top - reach - 1, -reach, reach + 1):
        with pytest.raises(IndexError):
            pulse.cascade(np.array([lag]))
    assert pulse.cascade(np.arange(1, 1)).shape == (0, top + 1)


def test_composite_response_once_per_context(monkeypatch):
    # a known channel's receivers are built with the sweep context, not per
    # block, frame or point: chaotic-opt's genie response and chaotic-
    # subopt's feedback row are one rx.composite_response call each, at 1
    # or 2 blocks; an estimated channel's feedback rows take one call per
    # block, the last one short
    calls = []
    real = rx.composite_response

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rx, "composite_response", counted)
    for method in ("chaotic-opt", "chaotic-subopt"):
        for frames in (2, 6):
            cfg = small_static(method=method, genie=method == "chaotic-opt",
                               trials=frames * 2000)
            assert H._Context(cfg, False).n_frames == frames
            calls.clear()
            H.run_static_sweep(cfg, jobs=1)
            assert len(calls) == 1, (method, frames)
    cfg = small_quasi(frames=13)
    ctx = H._Context(cfg, True)
    assert ctx.block == 6
    calls.clear()
    H.run_quasi_static(cfg, jobs=1)
    assert len(calls) == 3


def test_genie_response_matches_path_sum():
    # chaotic-opt's receiver, its genie response, comes from the pulse's
    # cascade table through rx.composite_response: the closed-form path sum
    # bitwise, and its lag-0 entry is the scalar path sum at 0
    for preset in ("static2", "static3"):
        for n_c in (8, 6):
            ctx = H._Context(small_static(method="chaotic-opt", genie=True,
                                          channel=preset, n_c=n_c), False)
            gains = ch.get_preset(preset)
            assert ctx.known.tobytes() == genie_response(gains).tobytes()
            assert (ctx.known[th.DECAY_RADIUS]
                    == composite_response(0.0, gains))


def test_static_sweep_method_gates():
    with pytest.raises(ValueError, match="^method = 'theory-opt' does not "
                                         "run in run_static_sweep"):
        H.run_static_sweep(small_static(method="theory-opt"), jobs=1)
    with pytest.raises(ValueError, match="channel = 'quasi2' is quasi-static"):
        H.run_static_sweep(small_static(channel="quasi2"), jobs=1)
    with pytest.raises(ValueError):
        # the optimal threshold needs the transmitted symbols
        H.run_static_sweep(small_static(method="chaotic-opt"), jobs=1)


def test_static_sweep_matches_frozen_theory():
    # loose band: 40k bits per point of Monte Carlo against the frozen
    # closed-form values
    cfg = small_static(trials=40000, n_data_bits=4000, ebn0_grid=(6.0, 8.0),
                       master_seed=303)
    recs = H.run_static_sweep(cfg, jobs=1)
    for r in recs:
        want = BER_SUB_TABLE[("static2", r.ebn0_db)]
        assert 0.4 * want - r.ci95 <= r.ber <= 2.2 * want + r.ci95


def test_genie_sweep_matches_frozen_theory():
    cfg = small_static(method="chaotic-opt", genie=True, trials=60000,
                       n_data_bits=4000, ebn0_grid=(6.0,), master_seed=404)
    (r,) = H.run_static_sweep(cfg, jobs=1)
    want = 0.003236762033  # closed-form optimal-threshold value at 6 dB
    assert abs(r.ber - want) <= 2.5 * r.ci95


def test_static_determinism_across_jobs(tmp_path):
    # the second sweep has full-size frames, whose buffers every worker
    # allocates for itself
    for cfg, jobs in ((small_static(trials=12000, n_data_bits=2000), 2),
                      (small_static(trials=5 * 3840, n_data_bits=3840), 3)):
        a = H.run_static_sweep(cfg, jobs=1)
        b = H.run_static_sweep(cfg, jobs=jobs)
        assert a == b
        pa = H.emit_csv(a, str(tmp_path / "a.csv"))
        pb = H.emit_csv(b, str(tmp_path / "b.csv"))
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_quasi_sweep_stats_and_accounting():
    stats = {}
    recs = H.run_quasi_static(small_quasi(), jobs=1, stats=stats)
    (r,) = recs
    assert r.bits == 12 * 1024
    assert stats["failure_policy"] == "pessimistic"
    (row,) = stats["per_point"]
    assert row["frames"] == 12
    assert row["failed_frames"] == 0
    assert row["excluded_bits"] == 0
    assert 0 < row["est_rms_mean"] < 0.2
    assert row["est_rms_mean"] <= row["est_rms_p90"] <= row["est_rms_max"]


def test_quasi_stats_summarize_the_decoded_frames():
    # in the sync transition region, where every frame, some or none fail,
    # the est_rms_* summary is the mean, p90 and max of the decoded frames'
    # RMS from frame_reference, and NaN where every frame failed
    cfg = small_quasi(channel="quasi3", ebn0_grid=(-5.0, -3.0, -1.0),
                      n_data_bits=512)
    stats = {}
    H.run_quasi_static(cfg, jobs=1, stats=stats)
    ctx = H._Context(cfg, True)
    rms = np.array([frame_reference(ctx, f)[3] for f in range(cfg.frames)])
    rows = stats["per_point"]
    assert [row["failed_frames"] for row in rows] == [12, 7, 0]
    for p, row in enumerate(rows):
        assert row["failed_frames"] == np.count_nonzero(np.isnan(rms[:, p]))
        ok = rms[np.isfinite(rms[:, p]), p]
        got = [row[k] for k in ("est_rms_mean", "est_rms_p90", "est_rms_max")]
        if not ok.size:
            assert np.all(np.isnan(got))
            continue
        want = [np.mean(ok), np.percentile(ok, 90.0), np.max(ok)]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@functools.lru_cache(maxsize=None)
def threshold_context(method, quasi):
    cfg = (small_quasi(method=method, ebn0_grid=(4.0, 8.0)) if quasi
           else small_static(method=method, genie=method == "chaotic-opt"))
    return H._Context(cfg, quasi)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=st.sampled_from([("chaotic-opt", False), ("chaotic-zero", False),
                             ("rrc-noeq", False), ("rrc-mmse", False),
                             ("rrc-mmse", True)]),
       n_frames=st.integers(1, 3), n=st.integers(1, 40),
       tie_frac=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_errors_is_decides_count(case, n_frames, n, tie_frac, seed):
    # the threshold receivers count where y >= theta differs from sent > 0,
    # with no decision formed; that is the count of decide's decisions that
    # differ from sent past the training, exact ties y == theta (which go
    # to +1) and zeros of either sign included. The equalizer here passes
    # each rail through exactly
    method, quasi = case
    ctx = threshold_context(method, quasi)
    rng = np.random.default_rng(seed)
    n_train, n_points = ctx.train.shape[1], ctx.sigmas.size
    sent = rng.choice([-1.0, 1.0], (n_frames, 2, n_train + n))
    sent[..., :n_train] = ctx.train
    theta = np.zeros(sent.shape)
    if method == "chaotic-opt":
        theta = np.array([[rx.threshold_optimal(
            np.concatenate([rail, ctx.pulse.tail]), ctx.known)[:rail.size]
            for rail in rails] for rails in sent])
    offset = rng.normal(size=(n_frames, n_points) + sent.shape[1:])
    tie = rng.random(offset.shape) < tie_frac
    offset[tie] = rng.choice([0.0, -0.0], int(tie.sum()))
    ys = theta[:, None] + offset
    eqs = np.zeros((n_points, 15))
    eqs[:, 7] = 1.0
    got = H._count_errors(ctx, ys.copy(), sent,
                          eqs if method == "rrc-mmse" else ctx.known)
    want = np.count_nonzero((decide(ys, theta[:, None]) != sent[:, None])
                            [..., n_train:], axis=(2, 3))
    assert got.tolist() == want.tolist()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=600),
    # ties: a few distinct values, repeated
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 7.5]), min_size=1,
             max_size=600)))
@example([0.5])
@example([2.0] * 600)
@example(list(np.linspace(0.0, 1.0, 600)))
def test_percentile_90_is_numpys(values):
    # the estimate RMS summary's p90 without np.percentile (which imports
    # numpy.ma): bitwise numpy's linear method, for a single value too
    x = np.array(values)
    assert H._percentile_90(x.copy()) == np.percentile(x, 90.0)
    assert (np.float64(H._percentile_90(x)).tobytes()
            == np.percentile(x, 90.0).tobytes())


def test_quasi_sweep_method_gates():
    for bad in ("chaotic-opt", "chaotic-zero", "rrc-noeq", "theory-subopt"):
        with pytest.raises(ValueError, match=f"^method = '{bad}' does not run "
                                             f"in run_quasi_static, which runs "
                                             f"chaotic-subopt or rrc-mmse$"):
            kw = {"genie": True} if bad == "chaotic-opt" else {}
            H.run_quasi_static(small_quasi(method=bad, **kw), jobs=1)
    with pytest.raises(ValueError, match="channel = 'static2' is static"):
        H.run_quasi_static(small_quasi(channel="static2"), jobs=1)


def test_quasi_failure_policy_separate_excludes_failed_frames():
    # at these low Eb/N0 points some frames lose sync; the separate policy
    # must drop exactly their payload bits (and the errors the pessimistic
    # policy charges for them) and report the drop
    runs = {}
    for policy in ("pessimistic", "separate"):
        stats = {}
        cfg = small_quasi(channel="quasi3", ebn0_grid=(-4.0, -3.0, -2.0, -1.0),
                          frames=20, n_data_bits=512, master_seed=3,
                          failure_policy=policy)
        runs[policy] = (H.run_quasi_static(cfg, jobs=1, stats=stats), stats)
    pess, pess_stats = runs["pessimistic"]
    sep, sep_stats = runs["separate"]
    assert sep_stats["failure_policy"] == "separate"
    failed = [row["failed_frames"] for row in pess_stats["per_point"]]
    assert failed == [row["failed_frames"] for row in sep_stats["per_point"]]
    assert sum(failed) > 0 and max(failed) < 20
    for p, (a, b) in enumerate(zip(pess, sep)):
        dropped = failed[p] * 512
        assert a.bits == 20 * 512
        assert b.bits == a.bits - dropped
        assert b.errors == a.errors - dropped
        assert pess_stats["per_point"][p]["excluded_bits"] == 0
        assert sep_stats["per_point"][p]["excluded_bits"] == dropped


def test_quasi_point_with_every_frame_failed_raises():
    # excluding failed frames can leave a point with no bit to count
    stats = {}
    cfg = small_quasi(ebn0_grid=(-30.0,), frames=2, n_data_bits=64,
                      failure_policy="separate")
    with pytest.raises(H.AllFramesFailed, match="every frame failed .* at "
                                                "-30.0 dB"):
        H.run_quasi_static(cfg, jobs=1, stats=stats)
    assert stats["per_point"][0]["failed_frames"] == 2


def test_sweeps_load_no_numpy_module_beyond_random():
    # every module a process loads adds to its resident memory, so a
    # one-frame sweep of every method, in a fresh interpreter, may load no
    # numpy module that ``import numpy`` leaves out except numpy.random
    script = """if True:
        import json, sys
        import numpy
        before = set(sys.modules)
        from chaosmodem import harness as H
        def config(method, channel, **kw):
            return H.ExperimentConfig(method=method, channel=channel,
                                      ebn0_grid=(6.0,), n_data_bits=512, **kw)
        for m in H.SIM_METHODS:
            H.run_static_sweep(config(m, "static3", trials=512,
                                      genie=m == "chaotic-opt"))
        for m in ("chaotic-subopt", "rrc-mmse"):
            H.run_quasi_static(config(m, "quasi3", frames=1), stats={})
        for m in H.THEORY_METHODS:
            H.run_theory_curves(config(m, "static3"))
        print(json.dumps(sorted(set(sys.modules) - before)))
    """
    src = str(Path(H.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "chaosmodem.harness" in loaded
    extra = [m for m in loaded if m.startswith("numpy.")
             and not m.startswith("numpy.random")]
    assert extra == []


def test_quasi_determinism_across_jobs():
    # the second case is A9's estimated-channel sweep, at enough frames that
    # each of its three workers runs a block
    for cfg, jobs, n_blocks in (
            (small_quasi(method="rrc-mmse", channel="quasi3", frames=10), 2, 2),
            (small_quasi(frames=30, n_data_bits=512, n_training_bits=256,
                         master_seed=17), 3, 3)):
        ctx = H._Context(cfg, True)
        assert -(-ctx.n_frames // ctx.block) == n_blocks
        assert (H.run_quasi_static(cfg, jobs=1)
                == H.run_quasi_static(cfg, jobs=jobs))


def test_quasi_preset_alias():
    a = H.run_quasi_static(small_quasi(channel="quasi"), jobs=1)
    b = H.run_quasi_static(small_quasi(channel="quasi2"), jobs=1)
    assert [r.ber for r in a] == [r.ber for r in b]


def test_theory_curve_properties():
    grid = tuple(np.arange(0.0, 12.5, 0.5))
    curves = {}
    for m in ("theory-opt", "theory-subopt"):
        for chan in ("static2", "static3"):
            cfg = H.ExperimentConfig(method=m, channel=chan, ebn0_grid=grid)
            curves[(m, chan)] = H.run_theory_curves(cfg)
    for recs in curves.values():
        bers = [r.ber for r in recs]
        assert all(x > y for x, y in zip(bers, bers[1:]))
        assert all(r.bits == 0 and r.errors == 0 and r.ci95 == 0.0
                   for r in recs)
    for chan in ("static2", "static3"):
        for o, s in zip(curves[("theory-opt", chan)],
                        curves[("theory-subopt", chan)]):
            assert s.ber >= o.ber
    # the 2-path profile leaves less ISI than the 3-path one
    for a, b in zip(curves[("theory-subopt", "static2")],
                    curves[("theory-subopt", "static3")]):
        assert a.ber < b.ber


def test_theory_requires_static_preset():
    with pytest.raises(ValueError, match="channel = 'quasi2' is quasi-static"):
        H.run_theory_curves(H.ExperimentConfig(
            method="theory-opt", channel="quasi2", ebn0_grid=(6.0,)))
    with pytest.raises(ValueError, match="^method = 'chaotic-opt' does not "
                                         "run in run_theory_curves"):
        H.run_theory_curves(H.ExperimentConfig(
            method="chaotic-opt", channel="static2", ebn0_grid=(6.0,),
            genie=True))


def test_csv_round_trip(tmp_path):
    recs = (H.run_static_sweep(small_static(), jobs=1)
            + H.run_theory_curves(H.ExperimentConfig(
                method="theory-subopt", channel="static3",
                ebn0_grid=(4.0, 8.0))))
    path = H.emit_csv(recs, str(tmp_path / "r.csv"))
    assert parse_csv(path) == recs
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "method,channel,ebn0_db,bits,errors,ber,ci95"
    assert len(lines) == 1 + len(recs)


def test_csv_one_record_two_lines(tmp_path):
    rec = H.BerRecord.from_counts("rrc-noeq", "static3", 2.0, 512, 50)
    path = H.emit_csv([rec], str(tmp_path / "one.csv"))
    raw = Path(path).read_text()
    assert raw.endswith("\n")
    assert len(raw.splitlines()) == 2
    with pytest.raises(ValueError):
        H.emit_csv([], str(tmp_path / "empty.csv"))


def test_parse_csv_rejects_corruption(tmp_path):
    rec = H.BerRecord.from_counts("rrc-noeq", "static3", 2.0, 512, 50)
    path = H.emit_csv([rec], str(tmp_path / "one.csv"))
    good = Path(path).read_text()
    bad1 = tmp_path / "bad1.csv"
    bad1.write_text(good.replace("ci95", "ci"))
    with pytest.raises(ValueError):
        parse_csv(str(bad1))
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text(good.replace(",50,", ",51,"))
    with pytest.raises(ValueError):
        parse_csv(str(bad2))


def test_plotdata_layout(tmp_path):
    recs = []
    for db in (8.0, 2.0, 5.0):
        recs.append(H.BerRecord.from_counts("rrc-mmse", "static2", db, 1000, 9))
        recs.append(H.BerRecord.from_counts("chaotic-opt", "static2", db, 1000, 4))
    paths = H.emit_plotdata(recs, str(tmp_path / "pd"))
    assert sorted(os.path.basename(p) for p in paths) == [
        "chaotic-opt.dat", "rrc-mmse.dat"]
    for p in paths:
        lines = Path(p).read_text().splitlines()
        assert lines[0].startswith("#")
        dbs = [float(ln.split()[0]) for ln in lines[1:]]
        assert dbs == sorted(dbs)
        assert len(dbs) == 3
    with pytest.raises(ValueError):
        H.emit_plotdata([], str(tmp_path / "empty"))


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError, match="master_seed"):
        small_static(master_seed=-1)


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs"):
        H.run_static_sweep(small_static(), jobs=0)
    with pytest.raises(ValueError, match="jobs"):
        H.run_static_sweep(small_static(), jobs=True)


class FakePool:
    """A pool that runs its map in turn in this process and records its
    start and shutdown in ``events``."""

    def __init__(self, events, max_workers, initializer):
        self.events, self.workers = events, max_workers
        events.append(("start", max_workers))

    def map(self, fn, *iterables, chunksize):
        return map(fn, *iterables)

    def shutdown(self, wait):
        self.events.append(("shutdown", self.workers, wait))


def test_pool_sized_by_frame_count(monkeypatch, own_pool):
    # the pool starts every worker up front, so a sweep of fewer blocks than
    # jobs asks for one worker per block; the fake runs them in turn. Three
    # frames of 1,000-symbol rails make one block, which needs no pool, or
    # three blocks of one frame each
    events = []
    monkeypatch.setattr(H, "ProcessPoolExecutor",
                        functools.partial(FakePool, events))
    cfg = small_static(trials=6000, n_data_bits=2000)  # 3 frames
    want = H.run_static_sweep(cfg, jobs=1)
    assert H.run_static_sweep(cfg, jobs=8) == want
    assert events == []
    monkeypatch.setattr(H, "_BLOCK_SYMBOLS", 1)
    assert H.run_static_sweep(cfg, jobs=8) == want
    H.run_static_sweep(cfg, jobs=2)
    assert [e[1] for e in events if e[0] == "start"] == [3, 2]


def test_pool_serves_every_sweep_of_its_worker_count(monkeypatch, own_pool):
    # sweeps that need the same number of workers share one pool, a sweep
    # of one block starts none and keeps it, and a sweep that needs another
    # number shuts it down, its workers joined, before it starts its own
    events = []
    monkeypatch.setattr(H, "ProcessPoolExecutor",
                        functools.partial(FakePool, events))
    monkeypatch.setattr(H, "_BLOCK_SYMBOLS", 1)  # a block per frame
    cfg = small_static(trials=6000, n_data_bits=2000)  # 3 frames
    want = H.run_static_sweep(cfg, jobs=1)
    for jobs in (3, 8, 3):
        assert H.run_static_sweep(cfg, jobs=jobs) == want
    H.run_quasi_static(small_quasi(frames=3), jobs=5)
    assert events == [("start", 3)]
    H.run_static_sweep(small_static(trials=2000, n_data_bits=2000), jobs=8)
    assert events == [("start", 3)]
    assert H.run_static_sweep(cfg, jobs=2) == want
    assert events == [("start", 3), ("shutdown", 3, True), ("start", 2)]


def test_broken_pool_is_replaced(own_pool):
    # a pool whose worker died between sweeps is dropped and the next
    # pooled sweep gives the one-worker records, whether the pool was seen
    # broken before the sweep started or only while it ran (or not before
    # it ended, so the sweep after it starts the fresh pool)
    cfg = small_static(trials=12000, n_data_bits=2000)  # 2 blocks
    want = H.run_static_sweep(cfg, jobs=1)
    assert H.run_static_sweep(cfg, jobs=2) == want
    for seen in (True, False):
        workers, pool = H._POOL
        died = pool.submit(os._exit, 1)
        if seen:
            with pytest.raises(BrokenProcessPool):
                died.result(timeout=60)
        assert H.run_static_sweep(cfg, jobs=2) == want
        with pytest.raises(BrokenProcessPool):
            died.result(timeout=60)
        assert H.run_static_sweep(cfg, jobs=2) == want
        assert H._POOL[0] == workers and H._POOL[1] is not pool


def test_pool_workers_exit_with_the_process():
    # a process that ran pooled sweeps exits on its own, and its workers
    # with it: a worker left holding the stdout pipe would keep
    # subprocess.run waiting until the timeout
    script = """if True:
        import multiprocessing
        from chaosmodem import harness as H
        cfg = H.ExperimentConfig("rrc-mmse", "static2", (6.0,),
                                 trials=12000, n_data_bits=2000)
        want = H.run_static_sweep(cfg, jobs=1)
        assert H.run_static_sweep(cfg, jobs=2) == want
        assert H.run_static_sweep(cfg, jobs=2) == want
        print(*[p.pid for p in multiprocessing.active_children()])
    """
    src = str(Path(H.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("quasi", (False, True))
@pytest.mark.parametrize("policy", ("pessimistic", "separate"))
def test_records_do_not_depend_on_the_block_size(monkeypatch, quasi, policy):
    # blocks of one frame, blocks that do not divide the frame count (so
    # the last one is short), and the default blocks give the same records
    # and stats, at one worker and at two
    cfg = (small_quasi(channel="quasi3", ebn0_grid=(-3.0, 6.0), frames=7,
                       n_data_bits=512, failure_policy=policy) if quasi
           else small_static(ebn0_grid=(2.0, 6.0), trials=7 * 512,
                             n_data_bits=512, failure_policy=policy))
    n = 128 * quasi + 256

    def sweep(block_symbols, jobs):
        monkeypatch.setattr(H, "_BLOCK_SYMBOLS", block_symbols)
        stats = {}
        if quasi:
            return H.run_quasi_static(cfg, jobs=jobs, stats=stats), stats
        return H.run_static_sweep(cfg, jobs=jobs), stats

    want = sweep(1, 1)
    assert not quasi or want[1]["per_point"][0]["failed_frames"] > 0
    for frames_per_block in (1, 3, 4, 7):
        for jobs in (1, 2):
            assert sweep(frames_per_block * n, jobs) == want


def test_rrc_infeasible_n_c_fails_before_the_pool():
    # the truncated RRC cascade at n_c = 2 misses the Nyquist tolerance;
    # that must surface as a config error, not a broken worker pool
    with pytest.raises(ValueError, match="n_c"):
        H.run_static_sweep(small_static(method="rrc-mmse", n_c=2), jobs=2)


def test_short_training_fails_before_the_pool():
    with pytest.raises(ValueError, match="n_training_bits"):
        H.run_quasi_static(small_quasi(n_training_bits=32), jobs=2)


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie, which an init
    that reaps no orphans can leave behind."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads worker states from /proc/<pid>/stat")
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_exit_when_the_process_is_killed(method, tmp_path):
    # a process killed outright runs no exit handler, so its workers stop
    # on their own once they see it gone; any survivor is killed here. The
    # pool starts its workers by the default start method, so each one the
    # platform has is tried: under forkserver they are not the process's
    # children but the forkserver's, which outlives it while they live
    script = f"""if True:
        import multiprocessing, time
        from chaosmodem import harness as H
        multiprocessing.set_start_method({method!r})
        cfg = H.ExperimentConfig("rrc-mmse", "static2", (6.0,),
                                 trials=12000, n_data_bits=2000)
        H.run_static_sweep(cfg, jobs=2)
        print(*[p.pid for p in multiprocessing.active_children()], flush=True)
        time.sleep(60)
    """
    src = str(Path(H.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the child's stderr goes to a file: its helper processes may write to
    # it after the test, and a failed sweep's traceback shows in the assert
    err = tmp_path / "stderr"
    with open(err, "w") as fh:
        proc = subprocess.Popen([sys.executable, "-c", script], text=True,
                                stdout=subprocess.PIPE, stderr=fh,
                                env={**os.environ, "PYTHONPATH": path})
    pids = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no worker pids within 30 s\n" + err.read_text()
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2, err.read_text()
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 15
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        for pid in filter(running, pids):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
