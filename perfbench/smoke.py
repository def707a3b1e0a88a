"""Smoke check of the benchmark itself: one short run of every workload,
untraced and traced, at the default seed (so the goldens are checked).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the traced per-layer self times plus harness.self_ms_per_frame add
up to the traced wall time, and that the traced split between workloads
holds: the decision-feedback decoder has no calls on static-linear and
most of the self time on static-dfe, and frame sync runs only on quasi.
Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = {}
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run(name, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: outputs correct")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and any(
                    line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                    for line in text),
                    f"{name} trace {trace}: {m['name']} printed in {m['unit']}")
            expect(any(line.startswith("failed_frac ") for line in text),
                   f"{name} trace {trace}: failed_frac printed")
            if trace:
                layers[name] = {k: v["value"] for k, v in metrics.items()}

    for name, m in layers.items():
        parts = sum(v for k, v in m.items() if k.endswith(".ms_per_frame"))
        parts += m["harness.self_ms_per_frame"]
        expect(math.isclose(parts, m["trace.wall_ms_per_frame"], rel_tol=1e-9),
               f"{name}: self times sum to the traced wall time "
               f"({parts:.6f} vs {m['trace.wall_ms_per_frame']:.6f} ms/frame)")
        expect((m["rxchain.frame_sync.ms_per_frame"] > 0) == (name == "quasi"),
               f"{name}: rxchain.frame_sync runs only on quasi")
    expect(layers["static-linear"]["rxchain.decode_suboptimal.calls_per_frame"] == 0,
           "static-linear: no rxchain.decode_suboptimal calls")
    dfe = layers["static-dfe"]
    share = dfe["rxchain.decode_suboptimal.ms_per_frame"] / dfe["trace.wall_ms_per_frame"]
    expect(share > 0.8,
           f"static-dfe: rxchain.decode_suboptimal holds {share:.1%} of self time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
