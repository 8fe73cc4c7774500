"""Span recorder and the patch points that feed it.

Spans are recorded from the benchmark's own files: each patch point replaces
a public name of a ``dekws`` module with a wrapper that opens a span, calls
the original and closes the span. A name is patched where its caller looks
it up, so a function imported by name into another module is patched in
that module too (``engine`` imports ``evaluate_task_accuracy`` by name,
``dataset`` imports ``mfcc`` by name). Autodiff ops also get their backward
closure wrapped, which times the backward pass of each op.

Spans live in memory and are written out when the run ends.
"""

import functools
import importlib
import json
import os
import time

_now = time.perf_counter

# Span fields, in order.
NAME, START, END, PARENT, RUN, SIZE = range(6)

# Size attached to a span: rows, clips or bytes.
_SIZES = {
    "engine.train_step": lambda args, result: len(args[1][0]),
    "metrics.evaluate_task_accuracy": lambda args, result: len(args[2]),
    "buffer.sample_batch": lambda args, result: len(result),
    "dataset.load_gsc": lambda args, result: len(result.labels),
    "dataset.load_synthetic": lambda args, result: len(result.labels),
    "checkpoint.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
}

# Always patched: the few boundaries the end-to-end metrics are read from.
PROBE_POINTS = (
    ("dekws.engine", "train_step", "engine.train_step"),
    ("dekws.engine", "evaluate_task_accuracy", "metrics.evaluate_task_accuracy"),
    ("dekws.metrics", "evaluate_task_accuracy", "metrics.evaluate_task_accuracy"),
    ("dekws.dataset", "load_gsc", "dataset.load_gsc"),
    ("dekws.dataset", "load_synthetic", "dataset.load_synthetic"),
)

# Patched only in a traced run, for the per-layer breakdown.
TRACE_POINTS = (
    ("dekws.autodiff", "adam_step", "autodiff.adam_step"),
    ("dekws.autodiff.Tensor", "backward", "autodiff.backward"),
    ("dekws.buffer.ReservoirBuffer", "insert", "buffer.insert"),
    ("dekws.buffer.ReservoirBuffer", "sample_batch", "buffer.sample_batch"),
    ("dekws.dataset.FeaturizedDataset", "subset", "dataset.subset"),
    ("dekws.dataset", "read_wav_pcm16", "dataset.read_wav_pcm16"),
    ("dekws.dataset", "featurize", "dataset.featurize"),
    ("dekws.dataset", "deterministic_split", "dataset.deterministic_split"),
    ("dekws.dataset", "mfcc", "dsp.mfcc"),
    ("dekws.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("dekws.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
)

# Autodiff ops: a forward span per call and a backward span per closure run.
AUTODIFF_OPS = (
    "conv1d", "batchnorm1d", "relu", "add", "mul", "global_avg_pool",
    "linear", "cross_entropy_loss", "mse_logit_loss",
)

# Counted, not timed: one call per buffer entry copied in or out.
COPY_POINT = ("dekws.buffer", "_copy_entry")


class Tracer:
    """In-memory span log.

    Each span is ``[name, start, end, parent index, run id, size]``; the
    size is rows, clips, bytes or multiply-add FLOPs, or 0. ``counts`` maps
    (counter, enclosing span name, run id) to a tally.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.run_id = ""
        self._stack: list = []

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.run_id, size])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = _now()
        self._stack.pop()

    def count(self, counter: str) -> None:
        where = self.spans[self._stack[-1]][NAME] if self._stack else ""
        key = (counter, where, self.run_id)
        self.counts[key] = self.counts.get(key, 0) + 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, size in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id, "size": size,
                }) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START]) - child[i] for i, s in enumerate(spans)]


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _span_wrapper(tracer: Tracer, span_name: str, fn):
    size_of = _SIZES.get(span_name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if size_of is not None:
            tracer.spans[idx][SIZE] = size_of(args, result)
        return result
    return wrapper


def _forward_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def forward(self, features, training=False):
        idx = tracer.open(f"model.forward.{'train' if training else 'eval'}",
                          len(features))
        try:
            return fn(self, features, training)
        finally:
            tracer.close(idx)
    return forward


def _flops(op: str, args, out) -> int:
    """Multiply-add FLOPs of one forward call, from the operand shapes."""
    if op == "conv1d":
        _, c_in, k = args[1].shape
        return 2 * out.size * c_in * k
    if op == "linear":
        return 2 * out.size * args[1].shape[1]
    return 0


def _op_wrapper(tracer: Tracer, op: str, fn):
    fwd_name = f"autodiff.{op}.fwd"
    bwd_name = f"autodiff.{op}.bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(fwd_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        flops = _flops(op, args, out)
        tracer.spans[idx][SIZE] = flops
        backward = out._backward
        if backward is not None:
            # Weight gradient always; input gradient when the input needs it.
            bwd_flops = flops * (2 if args[0].requires_grad else 1)

            def timed_backward(g):
                b = tracer.open(bwd_name, bwd_flops)
                try:
                    backward(g)
                finally:
                    tracer.close(b)
            out._backward = timed_backward
        return out
    return wrapper


def _count_wrapper(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)
    return wrapper


class Instrumented:
    """Context manager that installs patch points and restores them on exit.

    ``full=False`` installs only PROBE_POINTS; ``full=True`` installs every
    patch point. A point whose target no longer exists raises, so a renamed
    or inlined function fails the run instead of reading as zero time.
    """

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.full = full
        self._saved: list = []

    def _patch(self, owner_path: str, attr: str, make):
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        t = self.tracer
        points = PROBE_POINTS + (TRACE_POINTS if self.full else ())
        for owner, attr, span_name in points:
            self._patch(owner, attr, lambda fn, s=span_name: _span_wrapper(t, s, fn))
        if self.full:
            self._patch("dekws.model.TcResNet8", "forward",
                        lambda fn: _forward_wrapper(t, fn))
            for op in AUTODIFF_OPS:
                self._patch("dekws.autodiff", op, lambda fn, o=op: _op_wrapper(t, o, fn))
            self._patch(*COPY_POINT, lambda fn: _count_wrapper(t, "buffer.copy", fn))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
