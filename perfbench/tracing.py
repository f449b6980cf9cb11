"""Span recorder and layer wrappers for the traced benchmark run.

Only the traced run (``--trace 1``) imports this module.  It wraps public
functions and methods of ``repro`` from the outside, so the program under
test is never edited and the untraced run pays nothing.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span on the same thread and ``op`` the id of the
benchmark op in flight when the span began (-1 for timed work between ops,
None outside the timed phase).  Spans stay
in memory and are written as JSON lines when the run ends.  A layer's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
import weakref

from run import percentile_ms

# (module, attribute, span name) of the public functions the traced run
# wraps; every module that imported the function under its own name gets
# the wrapper too, so ``from x import f`` call sites are covered.
FUNCTIONS = [
    ("repro.metrics", "evaluate", "metrics.evaluate"),
    ("repro.fleet", "fleet_plan", "fleet.plan"),
    ("repro.fleet", "verify_fleet", "fleet.verify"),
    ("repro.analysis.report", "build_report_from_store",
     "analysis.report_from_store"),
]

# (module, class, method, span name)
METHODS = [
    ("repro.autograd", "Tensor", "backward", "autograd.backward"),
    ("repro.optim", "Adam", "step", "optim.step"),
    ("repro.optim", "SGD", "step", "optim.step"),
    ("repro.data", "DataLoader", "one_batch", "data.batch_wait"),
    ("repro.experiment", "PruningExperiment", "run", "experiment.run"),
    ("repro.experiment", "PruningExperiment", "load_pretrained",
     "models.pretrained.load"),
    ("repro.experiment", "Trainer", "run", "experiment.train"),
    ("repro.pruning", "Pruner", "prune", "pruning.prune"),
    ("repro.experiment", "SerialExecutor", "run", "executor.serial.run"),
    ("repro.experiment", "ResultCache", "put", "cache.put"),
    ("repro.experiment", "ResultCache", "contains", "cache.contains"),
    ("repro.experiment", "QueueWorker", "run_once", "queue.run_once"),
    ("repro.experiment", "WorkQueue", "claim", "queue.claim"),
    ("repro.experiment", "WorkQueue", "complete", "queue.complete"),
    ("repro.experiment", "WorkQueue", "requeue_expired",
     "queue.requeue_expired"),
    ("repro.experiment", "WorkQueue", "fail", "queue.fail"),
    ("repro.store", "ColumnStore", "append_rows", "store.append_rows"),
    ("repro.store", "ColumnStore", "append_frame", "store.append_frame"),
    ("repro.store", "ColumnStore", "to_frame", "store.to_frame"),
    ("repro.analysis.query", "Query", "apply_store",
     "analysis.query.apply_store"),
    ("repro.serve.server", "Snapshot", "prepared", "analysis.prepared"),
    ("repro.serve", "FrameSource", "load", "serve.source_load"),
]

# the kernel-backend protocol (repro.kernels.base.KernelBackend)
KERNEL_METHODS = [
    "gemm", "im2col", "col2im",
    "conv2d_forward", "conv2d_backward",
    "fused_conv_bias_relu_forward", "fused_conv_bias_relu_backward",
    "maxpool_forward", "maxpool_backward",
    "linear_forward", "linear_backward",
    "relu_forward", "relu_backward", "sgd_update",
]

# kernel metric groups: metric prefix -> protocol methods it sums
KERNEL_GROUPS = {
    "kernels.conv2d_fwd": ("conv2d_forward", "fused_conv_bias_relu_forward"),
    "kernels.conv2d_bwd": ("conv2d_backward", "fused_conv_bias_relu_backward"),
    "kernels.maxpool": ("maxpool_forward", "maxpool_backward"),
    "kernels.linear": ("linear_forward", "linear_backward"),
    "kernels.elementwise": ("relu_forward", "relu_backward", "sgd_update"),
}

# the model whose conv/linear layers get per-layer ``nn.<path>`` spans
TRACED_MODEL = "cifar-vgg"

# the cell phases subtracted from ``experiment.run`` for cell_overhead
PHASES = ("models.pretrained.load", "pruning.prune", "metrics.evaluate",
          "experiment.train")


class Tracer:
    """In-memory spans; ``op`` is set by the op recorder while an op runs
    (the workloads are closed loops, so at most one op is in flight)."""

    def __init__(self) -> None:
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, self.op, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, attrs=None) -> None:
        self.spans[index][2] = time.perf_counter()
        if attrs is not None:
            self.spans[index][5] = attrs
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name, attrs=None):
        """``fn`` recorded as span ``name``; ``attrs(args, result)`` may
        attach a dict to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, attrs(args, result) if attrs else None)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op,
                                    "attrs": attrs}) + "\n")


# -- wrapper installation ------------------------------------------------

def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# the kernel wrappers sit on bound methods: args start after ``self``
def _conv_fwd_attrs(args, result):
    x, w = args[0], args[1]
    out = result[0]
    n, c_in = x.shape[0], x.shape[1]
    c_out, _, kh, kw = w.shape
    return {"flop": 2 * n * c_out * out.shape[2] * out.shape[3] * c_in * kh * kw}


def _conv_bwd_attrs(args, result):
    g, ctx = args[0], args[1]
    n, c_out, oh, ow = g.shape
    _, c_in, kh, kw = ctx.w_shape
    # two GEMMs of the forward's size: weight grad and input grad
    return {"flop": 4 * n * c_out * oh * ow * c_in * kh * kw}


def _im2col_attrs(args, result):
    return {"bytes": int(result[0].nbytes)}


def _claim_attrs(args, result):
    return {"empty": result is None}


def _requeue_attrs(args, result):
    return {"requeued": len(result or ())}


def install(tracer: Tracer) -> None:
    """Wrap every layer listed above.  Call after ``repro`` is importable
    and before the workload's setup.  A function or method the program no
    longer has is skipped, and its metrics read 0."""
    import importlib

    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is not None:
            _replace_everywhere(original, tracer.wrap(original, span))

    special = {"queue.claim": _claim_attrs,
               "queue.requeue_expired": _requeue_attrs}
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = getattr(cls, method, None)
        if original is not None:
            setattr(cls, method,
                    tracer.wrap(original, span, special.get(span)))

    _install_batch_wait(tracer)
    _install_kernels(tracer)
    _install_modules(tracer)


def _install_batch_wait(tracer: Tracer) -> None:
    from repro.data import DataLoader

    iterate = DataLoader.__iter__

    def traced_iter(self):
        batches = iterate(self)
        while True:
            index = tracer.begin("data.batch_wait")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield batch

    DataLoader.__iter__ = traced_iter


def _install_kernels(tracer: Tracer) -> None:
    """Wrap the active backend's protocol methods on the instance, so the
    backend's own internal calls (conv → im2col) nest as child spans."""
    from repro.kernels import active_backend

    backend = active_backend()
    attrs = {"conv2d_forward": _conv_fwd_attrs,
             "fused_conv_bias_relu_forward": _conv_fwd_attrs,
             "conv2d_backward": _conv_bwd_attrs,
             "fused_conv_bias_relu_backward": _conv_bwd_attrs,
             "im2col": _im2col_attrs}
    for method in KERNEL_METHODS:
        bound = getattr(backend, method, None)
        if bound is not None:
            setattr(backend, method,
                    tracer.wrap(bound, "kernels." + method, attrs.get(method)))


def _install_modules(tracer: Tracer) -> None:
    """Per-instance forward spans for the conv/linear layers of
    ``TRACED_MODEL``: models built through the MODELS registry are tagged
    with their module paths, and ``Module.__call__`` records a span for
    tagged instances only."""
    from repro.models import MODELS
    from repro.nn import Conv2d, Linear, Module

    paths = weakref.WeakKeyDictionary()
    create = MODELS.create

    def traced_create(name, *args, **kwargs):
        model = create(name, *args, **kwargs)
        if name == TRACED_MODEL:
            for path, module in model.named_modules():
                if isinstance(module, (Conv2d, Linear)):
                    paths[module] = f"nn.{path}"
        return model

    MODELS.create = traced_create
    call = Module.__call__

    def traced_call(self, *args, **kwargs):
        name = paths.get(self)
        if name is None:
            return call(self, *args, **kwargs)
        index = tracer.begin(name)
        try:
            return call(self, *args, **kwargs)
        finally:
            tracer.end(index)

    Module.__call__ = traced_call


# -- per-layer metrics ---------------------------------------------------

def layer_metrics(tracer: Tracer, ops_seconds: float) -> dict:
    """Per-layer totals over the spans of the timed phase (spans outside
    it count only for ``setup.pretrain`` and ``fleet.plan``)."""
    spans = tracer.spans
    dur = [(s[2] or s[1]) - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def ancestors(i):
        parent = spans[i][3]
        while parent is not None:
            yield spans[parent][0]
            parent = spans[parent][3]

    total, calls, self_time = {}, {}, {}
    durations = {}
    kernel_top = 0.0
    kernel_top_calls = 0
    flop = im2col_bytes = 0
    claim_empty = requeued = 0
    cell_phases = 0.0
    for i, (name, _, _, _, op, attrs) in enumerate(spans):
        if op is None and name not in ("setup.pretrain", "fleet.plan"):
            continue
        up = list(ancestors(i))
        if name == "experiment.train" and "models.pretrained.load" in up:
            name = "setup.pretrain" if op is None else "models.pretrain"
        elif name == "cache.put" and "executor.serial.run" in up:
            name = "experiment.cache.put"
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
        durations.setdefault(name, []).append(dur[i])
        if name.startswith("kernels.") and not any(
                a.startswith("kernels.") for a in up):
            kernel_top += dur[i]
            kernel_top_calls += 1
        if attrs:
            flop += attrs.get("flop", 0)
            im2col_bytes += attrs.get("bytes", 0)
            claim_empty += bool(attrs.get("empty"))
            requeued += attrs.get("requeued", 0)
        if name in PHASES:
            nearest = next((a for a in up
                            if a in PHASES or a == "experiment.run"), None)
            if nearest == "experiment.run":
                cell_phases += dur[i]

    def s(name):
        return total.get(name, 0.0)

    out = {}
    for group, methods in KERNEL_GROUPS.items():
        out[group + ".s"] = sum(s("kernels." + m) for m in methods)
        if group.startswith("kernels.conv2d"):
            out[group + ".calls"] = sum(calls.get("kernels." + m, 0)
                                        for m in methods)
    out["kernels.conv2d.gflop"] = flop / 1e9
    out["kernels.im2col.mb"] = im2col_bytes / 1e6
    out["kernels.calls"] = kernel_top_calls
    out["kernels.share"] = kernel_top / ops_seconds if ops_seconds else 0.0
    out["autograd.backward.self_s"] = self_time.get("autograd.backward", 0.0)
    for name in sorted(total):
        if name.startswith("nn."):
            out[name + ".fwd_s"] = total[name]
    out["optim.step.s"] = s("optim.step")
    out["data.batch_wait.s"] = s("data.batch_wait")
    out["models.pretrained.load.s"] = s("models.pretrained.load")
    out["pruning.prune.s"] = s("pruning.prune")
    out["metrics.evaluate.s"] = s("metrics.evaluate")
    out["experiment.finetune.s"] = s("experiment.train")
    out["experiment.cell_overhead.s"] = s("experiment.run") - cell_phases
    out["experiment.cache.put.s"] = s("experiment.cache.put")
    out["setup.pretrain.s"] = s("setup.pretrain")
    out["queue.claim.s"] = s("queue.claim")
    out["queue.claim.calls"] = calls.get("queue.claim", 0)
    out["queue.claim.empty"] = claim_empty
    out["queue.complete.s"] = s("queue.complete")
    out["queue.requeue_expired.s"] = s("queue.requeue_expired")
    out["queue.requeued"] = requeued
    out["queue.failed"] = calls.get("queue.fail", 0)
    out["cache.put.s"] = s("cache.put")
    out["cache.contains.s"] = s("cache.contains")
    out["experiment.run.s"] = s("experiment.run")
    out["fleet.plan.s"] = s("fleet.plan")
    out["fleet.verify.s"] = s("fleet.verify")
    appends = durations.get("store.append_rows", [])
    out["store.append_rows.s"] = sum(appends)
    out["store.append_rows.p10_ms"] = percentile_ms(appends, 10)
    out["store.append_rows.p90_ms"] = percentile_ms(appends, 90)
    out["store.to_frame.s"] = s("store.to_frame")
    out["store.append_frame.s"] = s("store.append_frame")
    out["analysis.report_from_store.s"] = s("analysis.report_from_store")
    out["analysis.query.apply_store.s"] = s("analysis.query.apply_store")
    out["analysis.prepared.s"] = s("analysis.prepared")
    out["serve.source_load.s"] = s("serve.source_load")
    out["trace.spans"] = len(spans)
    return out
