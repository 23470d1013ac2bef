"""Span tracer that times calls into bitflow's layers from outside the engine.

``Tracer.install`` replaces the module globals that callers resolve (for
example ``netgraph.conv_fused``, the name ``run_vgg_block`` looks up) with
wrappers that record one span per call: name, start, end, process CPU time,
parent span and request id. Spans stay in memory until ``write``. The engine
itself is not changed, and ``uninstall`` puts every original back.

A span's self time is its duration minus the part of its interval covered by
child spans. Time a wrapper does not see is therefore reported as its
parent's self time: a refactor that bypasses a wrapped name shows up there
instead of hiding.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from bitflow import binconv, bitcore, bnquant, netgraph, trainkit


class TracerError(RuntimeError):
    """A name the tracer wraps is missing from the engine."""


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    cpu: float  # process CPU seconds, all threads, during the span
    parent: int  # index into Tracer.spans; -1 for a root span
    request: int
    capture: tuple | int | None = None


def span_name(fn) -> str:
    """``<defining module>.<function>``, the same wherever the function is bound."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


def _capture_conv(result, x, *args, **kwargs):
    # conv_fused(x_prev, thr, k, spec, ...) and conv_i8(x, k, spec, ...)
    k, spec = (args[1], args[2]) if isinstance(x, bitcore.I8FeatureMap) else (args[0], args[1])
    return x.dims, k.dims, k.words_per_site, spec


def _capture_bytes_out(result, *args, **kwargs):
    return result.nbytes


# (module, global name callers resolve, what to keep from each call for the counters)
TARGETS = [
    (netgraph, "load_model", None),
    (netgraph, "save_model", None),
    (netgraph, "run_model", None),
    (netgraph, "run_vgg_block", None),
    (netgraph, "run_resnet_block", None),
    (netgraph, "conv_fused", _capture_conv),
    (netgraph, "conv_i8", _capture_conv),
    (netgraph, "apply_threshold", None),
    (netgraph, "bn_q_forward", None),
    (binconv, "pack_bitplanes", _capture_bytes_out),
    (bnquant, "pack_bitplanes", _capture_bytes_out),
    (bitcore, "pack_bitplanes", _capture_bytes_out),
    (trainkit, "train_stage1", None),
    (trainkit, "train_stage2", None),
    (trainkit, "train_epochs", None),
    (trainkit, "evaluate", None),
    (trainkit, "_apply_grads", None),
    (trainkit, "export_vgg_model", None),
]


class Tracer:
    """Spans of the calls made while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._originals: list[tuple] = []
        self._wrappers: dict = {}

    def install(self) -> None:
        """Wrap every target; raises TracerError naming any that is missing."""
        missing = [f"{m.__name__}.{a}" for m, a, _ in TARGETS if not callable(getattr(m, a, None))]
        if missing:
            raise TracerError(f"engine names not found: {', '.join(missing)}")
        for module, attr, capture in TARGETS:
            fn = getattr(module, attr)
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(fn, capture)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span hangs under the main thread's open span
        main = self._stacks.get(self._main)
        return main[-1] if main else -1

    def _wrap(self, fn, capture):
        name = span_name(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            span = Span(name, 0.0, 0.0, time.process_time(), tracer._parent(stack), tracer.request)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - span.cpu
                stack.pop()
            if capture is not None:
                span.capture = capture(result, *args, **kwargs)
            return result

        return traced

    def write(self, path) -> None:
        """Write all spans as JSON: one [name, start, end, cpu, parent, request] row each."""
        rows = [[s.name, s.start, s.end, s.cpu, s.parent, s.request] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "cpu", "parent", "request"], "spans": rows}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics from the spans of requests with id >= 0.

    Times and counts are per request (the median over requests of each
    request's sum); ratios are over all traced requests together.
    ``netgraph.load_model.ms`` is the median over every load, set-up included.
    """
    selfs = self_times(spans)
    per_req = defaultdict(lambda: defaultdict(float))
    ratio = defaultdict(float)
    block_of = {}  # run_model span index -> blocks seen so far
    for s, self_t in zip(spans, selfs):
        if s.request < 0:
            continue
        r = per_req[s.request]
        dur = s.end - s.start
        r[s.name + ".ms"] += 1e3 * dur
        r[s.name + ".self_ms"] += 1e3 * self_t
        r[s.name + ".calls"] += 1
        r["trace.spans_per_request"] += 1
        if s.name in ("netgraph.run_vgg_block", "netgraph.run_resnet_block"):
            k = block_of.get(s.parent, 0)
            block_of[s.parent] = k + 1
            r[f"netgraph.block{k}.ms"] += 1e3 * dur
        if s.name == "binconv.conv_fused":
            ratio["fused_cpu"] += s.cpu
            ratio["fused_wall"] += dur
        if s.name in ("binconv.conv_fused", "binconv.conv_i8"):
            x_dims, k_dims, wps, spec = s.capture
            n, oh, ow, cout = binconv.output_shape(x_dims, k_dims, spec)
            _, h, w, _ = x_dims
            _, fh, fw, cin = k_dims
            ops = n * oh * ow * cout * wps * fh * fw
            r["binconv.word_ops"] += ops
            r["binconv.packed_mb"] += 8 * (n * h * w * wps + cout * fh * fw * wps) / 1e6
            ratio["conv_s"] += dur
            ratio["word_ops"] += ops
            ratio["useful_ops"] += ops * cin / (64 * wps)
        if s.name == "bitcore.pack_bitplanes":
            r["bitcore.pack_bitplanes.mb_out"] += s.capture / 1e6
    keys = {k for r in per_req.values() for k in r}
    out = {k: _median([r.get(k, 0.0) for r in per_req.values()]) for k in keys}
    out["trainkit.steps"] = out.get("trainkit.apply_grads.calls", 0.0)
    out["binconv.conv_fused.cpu_util"] = ratio["fused_cpu"] / ratio["fused_wall"] if ratio["fused_wall"] else 0.0
    out["binconv.ns_per_word_op"] = 1e9 * ratio["conv_s"] / ratio["word_ops"] if ratio["word_ops"] else 0.0
    out["binconv.useful_bit_frac"] = ratio["useful_ops"] / ratio["word_ops"] if ratio["word_ops"] else 0.0
    loads = [1e3 * (s.end - s.start) for s in spans if s.name == "netgraph.load_model"]
    out["netgraph.load_model.ms"] = _median(loads)
    out["trace.requests"] = float(len(per_req))
    return out
