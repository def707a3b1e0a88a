"""Span tracing by wrapping the public functions each sweep calls.

Spans are recorded from outside the program: for the duration of a traced
run, module attributes are replaced by timing wrappers and put back after.
A function imported by name into another module is wrapped where it is
looked up, since wrapping the defining module alone records nothing.

A span's self time is its duration minus the part its child spans cover,
so the self times of one sweep add up to the sweep's wall time; the
per-layer ms_per_frame figures are self times. The root span of a sweep
is named "harness" and its self time is the harness's own work (RNG
draws, sync-grid refinement, pooled LS estimate, glue).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from chaosmodem import baseline, channel, harness, rxchain, txchain

# the sweep entry points; their spans are the roots
ROOTS = (
    (harness, "run_static_sweep", "harness"),
    (harness, "run_quasi_static", "harness"),
)


def _size(args):
    return int(np.size(args[0]))


# (module looked up at run time, attribute, layer name, work counter)
LAYERS = (
    (harness, "synth_waveform", "waveform.synth_waveform", None),
    (baseline, "rrc_shape", "baseline.rrc_shape", None),
    (channel, "propagate", "channel.propagate", _size),
    (rxchain, "matched_filter", "rxchain.matched_filter", _size),
    (baseline, "rrc_matched_filter", "baseline.rrc_matched_filter", _size),
    (rxchain, "frame_sync", "rxchain.frame_sync", _size),
    (rxchain, "threshold_optimal", "rxchain.threshold_optimal", None),
    (rxchain, "decode_suboptimal", "rxchain.decode_suboptimal", _size),
    (rxchain, "composite_response", "theory.composite_response", None),
    (baseline, "design_mmse", "baseline.design_mmse", None),
    (baseline, "apply_equalizer", "baseline.apply_equalizer", None),
    (txchain, "build_frame", "txchain.build_frame", None),
    (txchain, "qpsk_map", "txchain.qpsk_map", None),
)
LAYER_NAMES = tuple(name for _, _, name, _ in LAYERS)


class Tracer:
    """In-memory span log: (name, start, end, parent index, sweep index)."""

    def __init__(self):
        self.spans = []
        self.work = []  # work count per span, 0 where none is counted
        self._stack = []
        self._sweep = -1

    def _wrap(self, fn, name, counter, root):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._sweep += 1
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self.work.append(counter(args) if counter else 0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self._sweep)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer and sweep entry point; restore on exit."""
        saved = []
        try:
            for mod, attr, name, counter in LAYERS:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name,
                                              counter, False))
            for mod, attr, name in ROOTS:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name,
                                              None, True))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((t0, t1))
        out = []
        for i, (_, t0, t1, _, _) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(i, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def summary(self):
        """Per layer name: self seconds, calls and work count; plus the
        summed root (sweep) wall time."""
        per = {name: [0.0, 0, 0] for name in LAYER_NAMES + ("harness",)}
        wall = 0.0
        for span, own, work in zip(self.spans, self.self_times(), self.work):
            name, t0, t1, parent, _ = span
            acc = per[name]
            acc[0] += own
            acc[1] += 1
            acc[2] += work
            if name == "harness":
                wall += t1 - t0
        return per, wall

    def dump(self, path):
        """Write the spans with times relative to the first start."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(t0 - base, 9), round(t1 - base, 9), p, s]
                for n, t0, t1, p, s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "sweep"], "spans": rows}, fh)
