"""Monte Carlo harness: config validation, records, sweeps, reports."""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import BER_SUB_TABLE  # noqa: E402

import chaosmodem.harness as H  # noqa: E402


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


def test_genie_only_for_optimal():
    assert small_static(method="chaotic-opt", genie=True).genie
    for method in ("chaotic-subopt", "chaotic-zero", "rrc-mmse", "rrc-noeq",
                   "theory-opt"):
        with pytest.raises(ValueError):
            small_static(method=method, genie=True)


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
    a = H.BerRecord.analytic("theory-opt", "static2", 6.0, 0.0032)
    assert a.bits == 0 and a.errors == 0 and a.ci95 == 0.0


def test_energy_per_bit():
    eb = H.waveform_energy_per_bit("chaotic", 8)
    assert abs(eb - 8 * 1.3433272444) / eb < 1e-4
    assert abs(H.waveform_energy_per_bit("rrc", 8) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        H.waveform_energy_per_bit("ofdm", 8)


def test_sigma_w_scales_linearly():
    a = H.sigma_w_chaotic(0.5, 8)
    b = H.sigma_w_chaotic(1.0, 8)
    assert abs(b - 2 * a) < 1e-12
    # matched filter of unit-variance samples: sigma_w = sqrt(K)/n_c
    assert abs(b - math.sqrt(H.waveform_energy_per_bit("chaotic", 8)) / 8) < 1e-12


def test_frame_streams_reproducible_and_distinct():
    a = H._frame_streams(5, 0)[0].integers(0, 2, 64)
    b = H._frame_streams(5, 0)[0].integers(0, 2, 64)
    c = H._frame_streams(5, 1)[0].integers(0, 2, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_static_sweep_accounting():
    recs = H.run_static_sweep(small_static(), jobs=1)
    assert [r.ebn0_db for r in recs] == [4.0, 8.0]
    for r in recs:
        assert r.method == "chaotic-subopt" and r.channel == "static2"
        assert r.bits == 20000  # ceil(20000/2000) frames x 2000 bits
        assert 0 <= r.errors <= r.bits
    assert recs[0].errors > recs[1].errors


def test_static_sweep_method_gates():
    with pytest.raises(ValueError):
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
    cfg = small_static(trials=12000, n_data_bits=2000)
    a = H.run_static_sweep(cfg, jobs=1)
    b = H.run_static_sweep(cfg, jobs=2)
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


def test_quasi_sweep_method_gates():
    for bad in ("chaotic-opt", "chaotic-zero", "rrc-noeq", "theory-subopt"):
        with pytest.raises(ValueError):
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


def test_quasi_determinism_across_jobs():
    cfg = small_quasi(method="rrc-mmse", channel="quasi3", frames=10)
    assert H.run_quasi_static(cfg, jobs=1) == H.run_quasi_static(cfg, jobs=2)


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
    with pytest.raises(ValueError):
        H.run_theory_curves(H.ExperimentConfig(
            method="chaotic-opt", channel="static2", ebn0_grid=(6.0,),
            genie=True))


def test_csv_round_trip(tmp_path):
    recs = (H.run_static_sweep(small_static(), jobs=1)
            + H.run_theory_curves(H.ExperimentConfig(
                method="theory-subopt", channel="static3",
                ebn0_grid=(4.0, 8.0))))
    path = H.emit_csv(recs, str(tmp_path / "r.csv"))
    assert H.parse_csv(path) == recs
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
        H.parse_csv(str(bad1))
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text(good.replace(",50,", ",51,"))
    with pytest.raises(ValueError):
        H.parse_csv(str(bad2))


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


def test_rrc_infeasible_n_c_fails_before_the_pool():
    # the truncated RRC cascade at n_c = 2 misses the Nyquist tolerance;
    # that must surface as a config error, not a broken worker pool
    with pytest.raises(ValueError, match="n_c"):
        H.run_static_sweep(small_static(method="rrc-mmse", n_c=2), jobs=2)


def test_short_training_fails_before_the_pool():
    with pytest.raises(ValueError, match="n_training_bits"):
        H.run_quasi_static(small_quasi(n_training_bits=32), jobs=2)
