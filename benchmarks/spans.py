"""Spans around the entry points of the six stanseg layers.

The tracer lives entirely in the benchmark: ``install`` replaces each
public entry point, at every module that imported it by name, with a
wrapper that records a span (name, start, end, parent, unit of work).
Spans are kept in memory and written out when the run ends. Backward
time per op comes from wrapping the ``backward_fn`` of each node an op
returns, so those spans nest inside ``autodiff.backward``.

Span names are ``<layer>.<entry point>``; the layer is the first
component and is one of autodiff, model, training, metrics, data_io.
``cli`` has no span: no workload runs it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# layers with time in a timed region; data_io only runs in set-up
LAYERS = ("autodiff", "model", "training", "metrics")
OPS = ("conv2d", "deconv2d", "maxpool2d", "concat", "relu", "sigmoid")


class Tracer:
    """In-memory span recorder for one single-threaded process.

    ``phase`` tags new spans ("setup" or "timed"); spans are recorded
    only while it is set. ``unit`` is the identifier shared by the spans
    of one unit of work (a train call or a cycle of pairs).
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, unit]
        self.stack: list[int] = []
        self.phase: str | None = None
        self.unit = None
        self.counts: dict = defaultdict(float)  # (phase, name) -> value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.phase, self.unit])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, value: float) -> None:
        if self.phase is not None:
            self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs after the span
        closes, for counters and backward wrapping."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def summary(self, phase: str) -> dict:
        """name -> {"ms", "self_ms", "calls"} over the spans of ``phase``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the process is
        single-threaded.
        """
        child_s = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for i, (name, start, end, _, ph, _) in enumerate(self.spans):
            if ph != phase:
                continue
            entry = out[name]
            entry["ms"] += 1e3 * (end - start)
            entry["self_ms"] += 1e3 * (end - start - child_s[i])
            entry["calls"] += 1
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span, in the order spans were opened."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, phase, unit) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "phase": phase, "unit": unit}) + "\n")


def _conv_flop(tracer: Tracer):
    def after(args, out):
        x, params = args[0], args[1]
        b, cin, h, w = x.shape
        cout, _, k, _ = params.weights.shape
        tracer.add("autodiff.conv2d.flop", 2 * b * cout * h * w * cin * k * k)
    return after


def _wrap_backward(tracer: Tracer, op: str, extra=None):
    """After-hook that puts the returned node's backward_fn in a span."""

    def after(args, out):
        if extra is not None:
            extra(args, out)
        node = getattr(out, "node", None)
        # concat of one tensor returns its input, whose node belongs to another op
        if node is not None and node.op == op:
            node.backward_fn = tracer.wrap(f"autodiff.{op}.bwd", node.backward_fn)

    return after


def install(tracer: Tracer, stanseg_modules: dict) -> None:
    """Wrap every layer entry point in ``stanseg_modules`` (module name ->
    module) at each module that holds a reference to it."""
    ad = stanseg_modules["autodiff"]
    md = stanseg_modules["model"]
    tr = stanseg_modules["training"]
    me = stanseg_modules["metrics"]
    io = stanseg_modules["data_io"]

    boundary_sizes: list[int] = []

    def count_points(args, out):
        boundary_sizes.append(len(out))

    def count_pairs(args, out):
        if len(boundary_sizes) >= 2:
            tracer.add("metrics.boundary_pairs", boundary_sizes[-2] * boundary_sizes[-1])
        boundary_sizes.clear()

    ops = {"conv2d": ad.conv2d, "deconv2d": ad.deconv2d,
           "maxpool2d": ad.maxpool2d, "concat": ad.concat_channels,
           "relu": ad.relu, "sigmoid": ad.sigmoid}
    plan = []  # (original function, span name, after-hook)
    for op, fn in ops.items():
        extra = _conv_flop(tracer) if op == "conv2d" else None
        plan.append((fn, f"autodiff.{op}.fwd", _wrap_backward(tracer, op, extra)))
    plan += [
        (ad.backward, "autodiff.backward", None),
        (md.build_model, "model.build", None),
        (tr.train, "training.train", None),
        (tr.adam_step, "training.adam_step", None),
        (tr.dice_loss, "training.dice_loss", None),
        (tr.augment_shift, "training.augment", None),
        (me.region_metrics, "metrics.region", None),
        (me.boundary_errors, "metrics.boundary_errors", count_pairs),
        (me.boundary_points, "metrics.boundary_points", count_points),
        (me.longest_axis, "metrics.longest_axis", None),
        (me.aggregate_rows, "metrics.aggregate", None),
        (me.report_to_json, "metrics.report", None),
        (me.report_to_csv, "metrics.report", None),
        (io.synth_generate, "data_io.synth", None),
    ]
    wrappers = {id(fn): tracer.wrap(name, fn, after) for fn, name, after in plan}
    for module in stanseg_modules.values():
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    md.Model.forward = tracer.wrap("model.forward", md.Model.forward)


def layer_metrics(tracer: Tracer, items: int, setups: int, mean_item_ms: float) -> dict:
    """Per-layer figures of a traced run, as {name: {"value", "unit"}}.

    Times and counts from the timed region are per item (training step
    or cycle of mask pairs); ``setup.*`` figures are per set-up repetition.
    ``autodiff.conv2d.gflop`` is computed from layer shapes as
    2*B*Cout*H*W*Cin*k*k per forward call, not measured.
    """
    timed = tracer.summary("timed")
    setup = tracer.summary("setup")

    def get(summary, name, key="ms"):
        return summary.get(name, {}).get(key, 0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    conv_ms = get(timed, "autodiff.conv2d.fwd") + get(timed, "autodiff.conv2d.bwd")
    for op in OPS:
        put(f"autodiff.{op}.fwd_ms", get(timed, f"autodiff.{op}.fwd") / items, "ms")
        put(f"autodiff.{op}.bwd_ms", get(timed, f"autodiff.{op}.bwd") / items, "ms")
        put(f"autodiff.{op}.calls", get(timed, f"autodiff.{op}.fwd", "calls") / items,
            "count")
    gflop = tracer.counts[("timed", "autodiff.conv2d.flop")] / 1e9
    fwd_s = get(timed, "autodiff.conv2d.fwd") / 1e3
    put("autodiff.conv2d.gflop", gflop / items, "GFLOP")
    put("autodiff.conv2d.gflop_per_s", gflop / fwd_s if fwd_s else 0.0, "GFLOP/s")
    put("autodiff.conv2d.share", conv_ms / items / mean_item_ms, "ratio")
    put("autodiff.backward.ms", get(timed, "autodiff.backward") / items, "ms")
    put("autodiff.backward.self_ms",
        get(timed, "autodiff.backward", "self_ms") / items, "ms")
    put("model.forward.ms", get(timed, "model.forward") / items, "ms")
    put("model.forward.calls", get(timed, "model.forward", "calls") / items, "count")
    for name in ("training.adam_step", "training.dice_loss", "training.augment",
                 "metrics.boundary_errors", "metrics.longest_axis", "metrics.region",
                 "metrics.aggregate", "metrics.report"):
        put(f"{name}.ms", get(timed, name) / items, "ms")
    put("metrics.boundary_pairs",
        tracer.counts[("timed", "metrics.boundary_pairs")] / items, "count")
    for name in ("model.build", "data_io.synth"):
        put(f"setup.{name}.ms", get(setup, name) / setups, "ms")
    for layer in LAYERS:
        self_ms = sum(v["self_ms"] for k, v in timed.items()
                      if k.split(".", 1)[0] == layer)
        put(f"layer.{layer}.self_ms", self_ms / items, "ms")
    return out
