"""The benchmark's trace hooks: every attribute ``perfbench/spans.py`` wraps
must exist, or a traced benchmark run crashes, and the sweeps must call
each one through that name, or its layer silently reads zero. This checks
them here, without editing the benchmark."""

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import spans  # noqa: E402

from chaosmodem import harness  # noqa: E402


def test_trace_hooks_exist():
    hooks = [(mod, attr) for mod, attr, *_ in spans.LAYERS + spans.ROOTS]
    for mod, attr in hooks:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
    # installing the tracer wraps every hook and puts each back after
    before = [getattr(mod, attr) for mod, attr in hooks]
    with spans.Tracer().installed():
        assert all(getattr(mod, attr) is not fn
                   for (mod, attr), fn in zip(hooks, before))
    assert [getattr(mod, attr) for mod, attr in hooks] == before


def test_every_hooked_layer_runs():
    # a layer the sweeps stopped calling through its traced name reads as
    # zero time, so tiny sweeps of every receiver must reach each one;
    # txchain.build_frame is the one layer no sweep calls
    configs = (
        (harness.run_static_sweep, harness.ExperimentConfig(
            "chaotic-opt", "static3", (8.0,), n_data_bits=256, trials=256,
            genie=True)),
        (harness.run_quasi_static, harness.ExperimentConfig(
            "chaotic-subopt", "quasi3", (8.0,), n_data_bits=256, frames=2)),
        (harness.run_quasi_static, harness.ExperimentConfig(
            "rrc-mmse", "quasi3", (8.0,), n_data_bits=256, frames=2)),
    )
    tracer = spans.Tracer()
    with tracer.installed():
        for sweep, config in configs:
            sweep(config, jobs=1)
    per, _ = tracer.summary()
    idle = {name for name in spans.LAYER_NAMES if per[name][1] == 0}
    assert idle == {"txchain.build_frame"}
