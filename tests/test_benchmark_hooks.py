"""The benchmark's trace hooks: every attribute ``perfbench/spans.py`` wraps
must exist, or a traced benchmark run crashes. This checks them here,
without editing the benchmark."""

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import spans  # noqa: E402


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
