"""Spans around the calls one relulab module makes into the next.

The benchmark never edits ``src/``: it swaps module attributes for timing
wrappers for the length of one round and puts the originals back after.
Spans stay in memory; a parent link (per thread) lets a layer's self time
be its span minus the child spans it covers.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import tracemalloc

from relulab import harness, nets, training

# The package attribute ``relulab.sharpness`` is the re-exported function,
# not the module, so the module is taken from sys.modules.
sharpness_module = sys.modules["relulab.sharpness"]


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans of one round, plus the largest-shape arguments seen
    per span name for the allocation pass."""

    def __init__(self):
        self.spans = []
        self.largest = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn, post=None):
        """``fn`` recorded as span ``name``; ``post(recorder, span, args,
        result)`` may annotate the span and returns the result to hand on."""

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            return result if post is None else post(self, span, args, result)

        return wrapper

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def keep_largest(self, name, size, args):
        with self._lock:
            if size > self.largest.get(name, (-1, None))[0]:
                self.largest[name] = (size, args)


def _keep_log(rec, span, args, log):
    span.info = log
    return log


def _step_post(rec, span, args, result):
    # gd_step_flat(theta, x, y, d, k, config, ...) -> (theta, loss, clipped)
    x, k = args[1], args[4]
    span.info = bool(result[2])
    rec.keep_largest("training.step", x.shape[0] * k, args)
    return result


def _forward_post(rec, span, args, result):
    net, x = args[0], args[1]
    rec.keep_largest("nets.forward", (x.shape[0] if x.ndim == 2 else 1) * net.width, args)
    return result


def _iteration_post(rec, span, args, result):
    span.info = result
    return result


def _operator_post(rec, span, args, apply):
    return rec.wrap("sharpness.hvp", apply)


# Cell boundaries: enough to time each sweep cell or shatter arm and to
# keep the trained networks, cheap enough to leave on in untraced rounds.
CELL_TARGETS = (
    (harness, "run_single_cell", "harness.cell", None),
    (harness, "train", "training.train", _keep_log),
    (harness, "neuron_stats", "shattering.neuron_stats", None),
)

LAYER_TARGETS = CELL_TARGETS + (
    (harness, "forward", "nets.forward", _forward_post),
    (harness, "sharpness", "sharpness.final", None),
    (harness, "write_manifest", "harness.write_manifest", None),
    (nets, "forward", "nets.forward", _forward_post),
    (training, "gd_step_flat", "training.step", _step_post),
    (training, "sharpness", "sharpness.telemetry", None),
    (sharpness_module, "make_hessian_operator", "sharpness.operator_build", _operator_post),
    (sharpness_module, "power_iteration", "numerics.power_iteration", _iteration_post),
)


@contextlib.contextmanager
def installed(recorder: Recorder, targets):
    """Swap each target for its recording wrapper; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, name, post), (_, _, original) in zip(targets, saved):
            setattr(module, attr, recorder.wrap(name, original, post))
        yield recorder
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def alloc_peak_mib(fn, *args) -> float:
    """Peak traced allocation of one call, in MiB (numpy reports its
    buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20
