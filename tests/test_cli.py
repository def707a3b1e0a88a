"""Command-line front end: config parsing, typed config building, and
subcommand wiring through main()."""

import dataclasses
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import chaosmodem
from chaosmodem import cli, harness
from oracles import parse_csv


# ------------------------------------------------------- config files ----

def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_comments_and_blanks(tmp_path):
    path = write(tmp_path, """
# full-line comment
method = chaotic-subopt   # trailing comment
channel=static2

trials = 40000
""")
    mapping = cli.parse_config_file(path)
    assert mapping == {"method": "chaotic-subopt", "channel": "static2",
                       "trials": "40000"}


def test_parse_config_duplicate_key(tmp_path):
    path = write(tmp_path, "method=a\nmethod=b\n")
    with pytest.raises(ValueError, match=":2:"):
        cli.parse_config_file(path)


def test_parse_config_missing_equals(tmp_path):
    path = write(tmp_path, "method chaotic-subopt\n")
    with pytest.raises(ValueError, match="key=value"):
        cli.parse_config_file(path)


def test_parse_config_empty_value(tmp_path):
    path = write(tmp_path, "method=\nchannel=static2\n")
    with pytest.raises(ValueError, match="empty"):
        cli.parse_config_file(path)


# ------------------------------------------------------- build_config ----

def test_build_config_types():
    cfg = cli.build_config({
        "method": "chaotic-subopt", "channel": "static2",
        "ebn0_grid": "0, 4,8", "trials": "50000", "master_seed": "9",
        "n_c": "8", "genie": "false", "n_data_bits": "2000",
    })
    assert cfg.method == "chaotic-subopt"
    assert cfg.ebn0_grid == (0.0, 4.0, 8.0)
    assert isinstance(cfg.trials, int) and cfg.trials == 50000
    assert cfg.genie is False


def test_build_config_space_separated_grid():
    cfg = cli.build_config({"method": "theory-opt", "channel": "static2",
                            "ebn0_grid": "1 2 3"})
    assert cfg.ebn0_grid == (1.0, 2.0, 3.0)


def test_build_config_default_grid():
    cfg = cli.build_config({"method": "theory-opt", "channel": "static3"})
    assert cfg.ebn0_grid == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def test_build_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        cli.build_config({"method": "theory-opt", "channel": "static2",
                          "snr": "3"})


def test_build_config_rejects_bad_int():
    with pytest.raises(ValueError, match="integer"):
        cli.build_config({"method": "theory-opt", "channel": "static2",
                          "trials": "many"})


def test_build_config_rejects_bad_bool():
    with pytest.raises(ValueError, match="genie"):
        cli.build_config({"method": "chaotic-opt", "channel": "static2",
                          "genie": "maybe"})


def test_every_config_field_is_a_config_key():
    # each ExperimentConfig field, set off its default, passes through its
    # config key; a field added without a key fails here
    ref = harness.ExperimentConfig(
        method="chaotic-opt", channel="static3", ebn0_grid=(1.0, 2.5),
        n_training_bits=128, n_data_bits=1000, trials=7000, frames=9,
        master_seed=5, n_c=6, genie=True, failure_policy="separate")
    fields = dataclasses.fields(harness.ExperimentConfig)
    assert all(getattr(ref, f.name) != f.default for f in fields)

    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ",".join(map(repr, value))
        return str(value)

    mapping = {f.name: text(getattr(ref, f.name)) for f in fields}
    assert cli.build_config(mapping) == ref


def test_build_config_requires_method_and_channel():
    with pytest.raises(ValueError, match="method"):
        cli.build_config({"channel": "static2"})
    with pytest.raises(ValueError, match="channel"):
        cli.build_config({"method": "theory-opt"})


# ---------------------------------------------------------- main wiring ----

STATIC_CFG = """
method = chaotic-subopt
channel = static2
ebn0_grid = 4,8
trials = 4000
n_data_bits = 2000
master_seed = 5
"""

QUASI_CFG = """
method = chaotic-subopt
channel = quasi2
ebn0_grid = 6
frames = 4
n_data_bits = 512
n_training_bits = 256
master_seed = 5
"""


def test_main_sweep_static_writes_csv(tmp_path, capsys):
    cfg = write(tmp_path, STATIC_CFG)
    rc = cli.main(["sweep-static", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaotic-subopt" in out and "wrote" in out
    records = parse_csv(str(tmp_path / "chaotic-subopt_static2.csv"))
    assert [r.ebn0_db for r in records] == [4.0, 8.0]
    assert all(r.bits == 4000 for r in records)


def test_main_seed_override_changes_counts(tmp_path, capsys):
    cfg = write(tmp_path, STATIC_CFG)
    errs = []
    for seed in (101, 202):
        rc = cli.main(["sweep-static", "--config", cfg, "--seed", str(seed),
                       "--out", str(tmp_path)])
        assert rc == 0
        records = parse_csv(str(tmp_path / "chaotic-subopt_static2.csv"))
        errs.append(tuple(r.errors for r in records))
    capsys.readouterr()
    assert errs[0] != errs[1]


def test_main_sweep_static_plotdata_format(tmp_path, capsys):
    cfg = write(tmp_path, STATIC_CFG)
    rc = cli.main(["sweep-static", "--config", cfg, "--out", str(tmp_path),
                   "--format", "both"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "chaotic-subopt_static2.csv").exists()
    plot_files = sorted(os.listdir(tmp_path / "plotdata"))
    assert plot_files == ["chaotic-subopt.dat"]


def test_main_sweep_quasi_prints_stats(tmp_path, capsys):
    cfg = write(tmp_path, QUASI_CFG)
    rc = cli.main(["sweep-quasi", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failed frames" in out and "est RMS" in out
    records = parse_csv(str(tmp_path / "chaotic-subopt_quasi2.csv"))
    assert records[0].bits == 4 * 512


def test_main_every_frame_failed_is_an_error(tmp_path, capsys):
    # a point that counted no bit reports which, with no traceback and no CSV
    cfg = write(tmp_path, QUASI_CFG.replace("ebn0_grid = 6", "ebn0_grid = -30")
                .replace("frames = 4", "frames = 2")
                .replace("n_data_bits = 512", "n_data_bits = 64")
                + "failure_policy = separate\n")
    out = tmp_path / "out"
    rc = cli.main(["sweep-quasi", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: every frame failed")
    assert err.rstrip().endswith("at -30.0 dB; no bits were counted")
    assert "Traceback" not in err
    assert not out.exists()


def test_main_theory_default_battery(tmp_path, capsys):
    rc = cli.main(["theory", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    records = parse_csv(str(tmp_path / "theory_curves.csv"))
    assert len(records) == 4 * 6
    methods = {(r.method, r.channel) for r in records}
    assert methods == {(m, c) for m in ("theory-opt", "theory-subopt")
                       for c in ("static2", "static3")}
    assert all(r.bits == 0 and r.errors == 0 for r in records)


def test_main_theory_with_config(tmp_path, capsys):
    cfg = write(tmp_path, "method=theory-subopt\nchannel=static3\n"
                          "ebn0_grid=2,6,10\n")
    rc = cli.main(["theory", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    records = parse_csv(str(tmp_path / "theory_curves.csv"))
    assert [r.ebn0_db for r in records] == [2.0, 6.0, 10.0]
    bers = [r.ber for r in records]
    assert bers == sorted(bers, reverse=True)


def test_main_genie_flag_gates_optimal(tmp_path, capsys):
    cfg = write(tmp_path, "method=chaotic-opt\nchannel=static2\n"
                          "ebn0_grid=8\ntrials=2000\nn_data_bits=2000\n"
                          "master_seed=3\n")
    rc = cli.main(["sweep-static", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")
    rc = cli.main(["sweep-static", "--config", cfg, "--out", str(tmp_path),
                   "--genie"])
    assert rc == 0
    capsys.readouterr()
    records = parse_csv(str(tmp_path / "chaotic-opt_static2.csv"))
    assert records[0].bits == 2000


def test_main_check_conjugacy_passes(capsys):
    rc = cli.main(["check-conjugacy"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass" in out and "FAIL" not in out


def test_main_selftest_passes(capsys, monkeypatch, own_pool):
    # a chaotic-subopt static sweep against the closed form, and a quasi
    # sweep at one worker and through a pool of two, which starts with no
    # pool in the process; the pool it starts is shut down after
    pools = []

    def pool(max_workers, **kw):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **kw)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out
    assert out.splitlines()[-1] == "no failures"
    assert pools == [2]


# the flags each subcommand takes, with a run's config; it reads them all
SURFACE = {
    "sweep-static": (("--config", "--seed", "--out", "--jobs", "--genie",
                      "--format"),
                     "method=chaotic-opt\nchannel=static2\nebn0_grid=8\n"
                     "trials=2000\nn_data_bits=2000\n"),
    "sweep-quasi": (("--config", "--seed", "--out", "--jobs", "--format"),
                    QUASI_CFG),
    "theory": (("--config", "--out", "--format"),
               "method=theory-subopt\nchannel=static3\n"),
    "check-conjugacy": ((), None),
    "selftest": (("--jobs",), None),
}


@pytest.mark.parametrize("command", SURFACE)
def test_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys,
                                                  monkeypatch, command):
    flags, config = SURFACE[command]
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    taken = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert taken - {"--help"} == set(flags)

    reads = set()

    class Recorder:
        def __init__(self, args):
            self.args = args

        def __getattr__(self, name):
            reads.add(name)
            return getattr(self.args, name)

    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args, fn=getattr(cli, name):
                                fn(Recorder(args)))
    values = {"--config": config and write(tmp_path, config), "--seed": "3",
              "--out": str(tmp_path), "--jobs": "1", "--format": "csv"}
    argv = [command]
    for flag in flags:
        argv += [flag] + ([values[flag]] if flag in values else [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert {flag[2:] for flag in flags} <= reads


def test_main_missing_config_file(tmp_path, capsys):
    rc = cli.main(["sweep-static", "--config", str(tmp_path / "nope.cfg")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("cmd,method,db", (
    ("sweep-static", "chaotic-subopt", -4000), ("theory", "theory-opt", 4000)))
def test_main_extreme_ebn0_names_its_key(tmp_path, capsys, cmd, method, db):
    # a noise level beyond float range is a config error, not a traceback
    cfg = write(tmp_path, f"method={method}\nchannel=static2\n"
                          f"ebn0_grid=4,{db}\n")
    rc = cli.main([cmd, "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and "ebn0_grid" in err


def test_main_bad_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "method=theory-opt\nchannel=static2\nbogus=1\n")
    rc = cli.main(["theory", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and "unknown config key" in err


def test_console_entry_point_runs():
    # the child does not inherit pytest's sys.path, so hand it the
    # directory the package was imported from
    src = str(Path(chaosmodem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chaosmodem.cli", "check-conjugacy"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "bounded-tail condition" in proc.stdout
