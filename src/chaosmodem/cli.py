"""Command-line front end: flat config files, sweeps, theory curves,
conjugacy checking, and a quick self test.

Config files are plain key=value lines ('#' starts a comment, blank lines
ignored). Recognized keys mirror ExperimentConfig:

    method            chaotic-opt | chaotic-subopt | chaotic-zero |
                      rrc-mmse | rrc-noeq | theory-opt | theory-subopt
    channel           static2 | static3 | quasi2 | quasi3 | quasi
    ebn0_grid         comma-separated dB values (default 0,2,4,6,8,10)
    n_training_bits   training bits per frame (default 256)
    n_data_bits       payload bits per frame (default 3840)
    trials            static stop rule: payload bits per grid point
    frames            quasi stop rule: frames per grid point
    master_seed       integer seed of the whole sweep
    n_c               samples per symbol (default 8)
    genie             true/false (true exactly for chaotic-opt)
    failure_policy    pessimistic | separate

Command-line flags override file keys; each subcommand takes only the
flags it reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Dict, List, Optional

from . import harness
from . import waveform as wf

_DEFAULT_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value text, full- or trailing-line '#' comments."""
    mapping: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if key in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            mapping[key] = value
    return mapping


def _bool(value: str) -> bool:
    word = value.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(word)
    return word in ("true", "yes", "1")


# the parser of each ExperimentConfig field annotation (a string, since
# harness postpones its annotations), and what it expects
_PARSERS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "tuple": (lambda v: tuple(float(g) for g in v.replace(",", " ").split()),
              "a list of numbers"),
    "bool": (_bool, "true or false"),
}


def build_config(mapping: Dict[str, str]) -> harness.ExperimentConfig:
    """Typed ExperimentConfig from string key=value pairs, one per field."""
    fields = dataclasses.fields(harness.ExperimentConfig)
    types = {f.name: f.type for f in fields}
    kwargs: Dict[str, object] = {"ebn0_grid": _DEFAULT_GRID}
    for key, value in mapping.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        parse, expected = _PARSERS[types[key]]
        try:
            kwargs[key] = parse(value)
        except ValueError:
            raise ValueError(f"config key {key} needs {expected}, "
                             f"got {value!r}") from None
    for f in fields:
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ValueError(f"config is missing the {f.name!r} key")
    return harness.ExperimentConfig(**kwargs)


def _print_records(records) -> None:
    print(f"{'method':<16}{'channel':<10}{'ebn0_db':>8}{'bits':>10}"
          f"{'errors':>8}  {'ber':<13}{'ci95':<13}")
    for r in records:
        print(f"{r.method:<16}{r.channel:<10}{r.ebn0_db:>8.2f}{r.bits:>10}"
              f"{r.errors:>8}  {r.ber:<13.6g}{r.ci95:<13.6g}")


def _emit(records, args, default_name: str) -> None:
    os.makedirs(args.out, exist_ok=True)
    if args.format in ("csv", "both"):
        path = harness.emit_csv(records,
                                os.path.join(args.out, default_name))
        print(f"wrote {path}")
    if args.format in ("plotdata", "both"):
        for path in harness.emit_plotdata(records,
                                          os.path.join(args.out, "plotdata")):
            print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        mapping["master_seed"] = str(args.seed)
    if getattr(args, "genie", False):  # a sweep-static flag
        mapping["genie"] = "true"
    config = build_config(mapping)
    quasi = args.command == "sweep-quasi"
    stats: dict = {}
    t0 = time.perf_counter()
    records = (harness.run_quasi_static(config, jobs=args.jobs, stats=stats)
               if quasi else harness.run_static_sweep(config, jobs=args.jobs))
    elapsed = time.perf_counter() - t0
    _print_records(records)
    size = (f"{config.frames} frames/point, policy {config.failure_policy}"
            if quasi else f"{records[0].bits} bits/point")
    print(f"swept {len(records)} points in {elapsed:.1f} s ({size})")
    for row in stats.get("per_point", ()):
        print(f"  {row['ebn0_db']:.2f} dB: {row['failed_frames']} failed frames, "
              f"est RMS mean {row['est_rms_mean']:.4f} "
              f"p90 {row['est_rms_p90']:.4f} max {row['est_rms_max']:.4f}")
    _emit(records, args, f"{config.method}_{config.channel}.csv")
    return 0


def _cmd_theory(args) -> int:
    if args.config:
        configs = [build_config(parse_config_file(args.config))]
    else:
        configs = [build_config({"method": m, "channel": c})
                   for m in harness.THEORY_METHODS
                   for c in ("static2", "static3")]
    records: List[harness.BerRecord] = []
    for config in configs:
        records.extend(harness.run_theory_curves(config))
    _print_records(records)
    _emit(records, args, "theory_curves.csv")
    return 0


def _cmd_check_conjugacy(args) -> int:
    t0 = time.perf_counter()
    report = wf.check_conjugacy()
    elapsed = time.perf_counter() - t0
    print(f"waveform/symbol equivalence check (beta = ln 2), {elapsed:.2f} s")
    print(f"  repeated-symbol agreement:  {'pass' if report.cond1 else 'FAIL'}")
    print(f"  envelope margin:            {report.cond2_margin:.3e} "
          f"({'pass' if report.cond2_margin > 0 else 'FAIL'})")
    print(f"  integral |p| over [-1,1]x2: {report.integral_inside:.6f}")
    print(f"  integral |p| over [-8,0]:   {report.integral_outside:.6f}")
    print(f"  bounded-tail condition:     {'pass' if report.cond3 else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"[{tag}] {name}  ({detail})")

    report = wf.check_conjugacy()
    check("waveform/symbol equivalence", report.passed,
          f"integrals {report.integral_inside:.4f}/{report.integral_outside:.4f}")

    grid = (4.0, 8.0)
    cfg = harness.ExperimentConfig(method="chaotic-subopt", channel="static2",
                                   ebn0_grid=grid, trials=40000,
                                   master_seed=11, n_data_bits=2000)
    sim = harness.run_static_sweep(cfg, jobs=args.jobs)
    theory = harness.run_theory_curves(
        harness.ExperimentConfig(method="theory-subopt", channel="static2",
                                 ebn0_grid=grid))
    for s, t in zip(sim, theory):
        lo = 0.5 * t.ber - 3.0 * s.ci95
        hi = 2.0 * t.ber + 3.0 * s.ci95
        check(f"static BER near closed form at {s.ebn0_db:g} dB",
              lo <= s.ber <= hi, f"sim {s.ber:.3e} vs theory {t.ber:.3e}")

    # two blocks of frames, so that the sweep runs on the process's pool of
    # two workers, which it starts unless an earlier sweep did
    tiny = harness.ExperimentConfig(method="chaotic-subopt", channel="quasi2",
                                    ebn0_grid=(6.0,), frames=20,
                                    n_data_bits=512, n_training_bits=256,
                                    master_seed=7)
    a = harness.run_quasi_static(tiny, jobs=1)
    b = harness.run_quasi_static(tiny, jobs=2)
    check("determinism across worker counts", a == b,
          f"{a[0].errors} errors both ways" if a == b else f"{a} != {b}")

    print(f"{'no failures' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    # each subcommand takes only the flags it reads
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--config", metavar="PATH",
                        help="key=value experiment description")
    report.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default .)")
    report.add_argument("--format", choices=("csv", "plotdata", "both"),
                        default="csv", help="report format (default csv)")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1)")
    sweep = argparse.ArgumentParser(add_help=False, parents=[report, workers])
    sweep.add_argument("--seed", type=int, metavar="N",
                       help="override master_seed")

    parser = argparse.ArgumentParser(
        prog="chaosmodem",
        description="Chaotic-baseband modem Monte Carlo experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    static = sub.add_parser("sweep-static", parents=[sweep],
                            help="known-channel BER sweep")
    static.add_argument("--genie", action="store_true",
                        help="genie-aided decoding (chaotic-opt only)")
    static.set_defaults(fn=_cmd_sweep)
    sub.add_parser("sweep-quasi", parents=[sweep],
                   help="estimated-channel BER sweep").set_defaults(fn=_cmd_sweep)
    sub.add_parser("theory", parents=[report],
                   help="closed-form BER curves").set_defaults(fn=_cmd_theory)
    sub.add_parser("check-conjugacy",
                   help="waveform/symbol equivalence report").set_defaults(
                       fn=_cmd_check_conjugacy)
    sub.add_parser("selftest", parents=[workers],
                   help="quick end-to-end sanity battery").set_defaults(
                       fn=_cmd_selftest)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.AllFramesFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
