"""Span recording and self-time analysis for the benchmark's traced runs.

The program under test carries no benchmark tracing of its own: the
traced launcher (``traced_cli.py``) wraps public functions of
``repro`` with :meth:`Tracer.wrap`, which records one span per call
(name, start, end, parent, thread).  Spans stay in memory and are
written out once, when the process ends.

:func:`self_times` turns a span list into per-layer self time: a span's
duration minus the part of it covered by its child spans, summed per
layer.  Nesting is taken from interval containment on each thread, so
spans recorded by the program's own tracer (``repro --trace``) merge
into the same tree.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

#: Span-name prefix -> layer (named after the ``src/repro`` modules).
LAYERS = {
    "fault": "fault",
    "runtime": "runtime",
    "replica": "runtime.replica",
    "store": "store",
    "eval": "eval",
    "serve": "serve",
    "core": "core",
    "nn": "nn",
    "autograd": "autograd",
    "optim": "optim",
}

#: Layers whose self time is reported, ``other`` last.
SELF_TIME_LAYERS = (*dict.fromkeys(LAYERS.values()), "other")

#: The launcher's root span; its self time is everything no wrapped
#: layer claims (interpreter start-up, imports, argument parsing).
ROOT = "process"


def layer_of(name: str) -> str:
    if name == ROOT:
        return "other"
    return LAYERS.get(name.split(".", 1)[0], "other")


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        return span_id, parent, time.perf_counter()

    def close(self, name: str, opened: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        self._stack().pop()
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.get_ident(),
        }
        with self._lock:
            self.spans.append(record)

    def wrap(self, function, name: str, before=None, after=None):
        """``function`` recording one ``name`` span per call.

        ``before(args, kwargs)`` runs inside the span before the call;
        ``after(result, args, kwargs)`` after it, to feed counters.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = self.open(name)
            try:
                if before is not None:
                    before(args, kwargs)
                result = function(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self.close(name, opened)

        return traced


def _nest(spans: list[dict[str, object]]) -> dict[int, list[int]]:
    """Child index lists per span index, from containment on each thread."""
    children: dict[int, list[int]] = defaultdict(list)
    by_thread: dict[object, list[int]] = defaultdict(list)
    for index, record in enumerate(spans):
        by_thread[record["thread"]].append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i]["start"], -spans[i]["end"]))
        stack: list[int] = []
        for index in indices:
            start = spans[index]["start"]
            while stack and spans[stack[-1]]["end"] <= start:
                stack.pop()
            if stack:
                children[stack[-1]].append(index)
            stack.append(index)
    return children


def self_times(spans: list[dict[str, object]]) -> dict[str, float]:
    """Seconds of self time per layer (``other`` holds the root's own).

    Self time is a span's duration minus the union of its children's
    intervals (children nest, so the union is their clipped sum).
    """
    children = _nest(spans)
    totals: dict[str, float] = defaultdict(float)
    for index, record in enumerate(spans):
        start, end = record["start"], record["end"]
        covered = 0.0
        for child in children.get(index, ()):
            covered += min(end, spans[child]["end"]) - max(start, spans[child]["start"])
        totals[layer_of(str(record["name"]))] += max(0.0, (end - start) - covered)
    return dict(totals)


def parents_of(spans: list[dict[str, object]]) -> dict[int, int]:
    """Containment parent index per span index (roots are absent)."""
    parent: dict[int, int] = {}
    for index, kids in _nest(spans).items():
        for child in kids:
            parent[child] = index
    return parent


def durations(spans: list[dict[str, object]], name: str) -> list[float]:
    return [
        float(r["end"]) - float(r["start"]) for r in spans if r["name"] == name
    ]


def mean_ms(spans, name: str) -> float:
    values = durations(spans, name)
    return float(np.mean(values)) * 1e3 if values else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced command (zero where a layer did not run)."""
    spans, counters = trace["spans"], trace["counters"]
    samples, kernels = trace["samples"], trace["kernels"]
    parents = parents_of(spans)
    clean = [
        float(r["end"]) - float(r["start"])
        for i, r in enumerate(spans)
        if r["name"] == "eval.accuracy" and i in parents and spans[parents[i]]["name"] == ROOT
    ]
    trials = counters.get("fault.trials", 0.0)
    lanes = counters.get("eval.lanes", 0.0)
    groups = counters.get("eval.groups", 0.0)
    lane_starts = samples.get("replica.lane_start_frac", [])
    gather_s = kernels.get("gather_s", 0.0)
    metrics = {
        "fault.sample_ms": (mean_ms(spans, "fault.sample"), "ms"),
        "fault.apply_ms": (mean_ms(spans, "fault.apply"), "ms"),
        "fault.restore_ms": (mean_ms(spans, "fault.restore"), "ms"),
        "fault.flips_per_trial": (counters.get("fault.flips", 0.0) / trials if trials else 0.0, "flips"),
        "runtime.compile_count": (float(len(durations(spans, "runtime.compile"))), "count"),
        "runtime.compile_ms": (mean_ms(spans, "runtime.compile"), "ms"),
        "runtime.refresh_count": (float(len(durations(spans, "runtime.refresh"))), "count"),
        "runtime.refresh_ms": (mean_ms(spans, "runtime.refresh"), "ms"),
        "runtime.forward_count": (float(len(durations(spans, "runtime.forward"))), "count"),
        "runtime.forward_ms": (mean_ms(spans, "runtime.forward"), "ms"),
        "runtime.kernel.gather_ms": (kernels.get("gather", 0.0), "ms"),
        "runtime.kernel.gemm_ms": (kernels.get("gemm", 0.0), "ms"),
        "runtime.kernel.epilogue_ms": (kernels.get("epilogue", 0.0), "ms"),
        "runtime.kernel.gather_gbps": (
            counters.get("runtime.gather_bytes", 0.0) / gather_s / 1e9 if gather_s else 0.0,
            "GB/s",
        ),
        "replica.prepare_ms": (mean_ms(spans, "replica.prepare"), "ms"),
        "replica.lane_forward_ms": (mean_ms(spans, "replica.lane_forward"), "ms"),
        "replica.shared_prefix_frac": (float(np.mean(lane_starts)) if lane_starts else 0.0, "fraction"),
        "replica.zero_flip_lane_frac": (
            counters.get("eval.zero_flip_lanes", 0.0) / lanes if lanes else 0.0, "fraction",
        ),
        "replica.fallback_groups": (counters.get("replica.fallback_groups", 0.0), "count"),
        "eval.lanes_per_group": (lanes / groups if groups else 0.0, "lanes"),
        "store.record_count": (float(len(durations(spans, "store.record"))), "count"),
        "store.record_ms": (mean_ms(spans, "store.record"), "ms"),
        "eval.clean_accuracy_ms": (sum(clean) * 1e3, "ms"),
        "eval.context_load_ms": (mean_ms(spans, "eval.context_load"), "ms"),
        "core.profile_ms": (mean_ms(spans, "core.profile"), "ms"),
        "core.surgery_ms": (mean_ms(spans, "core.surgery"), "ms"),
        "core.posttrain_ms": (mean_ms(spans, "core.posttrain"), "ms"),
        "nn.train_forward_ms": (mean_ms(spans, "nn.train_forward"), "ms"),
        "autograd.backward_ms": (mean_ms(spans, "autograd.backward"), "ms"),
        "optim.step_ms": (mean_ms(spans, "optim.step"), "ms"),
        "core.probe_ms": (mean_ms(spans, "core.probe"), "ms"),
        "core.checkpoint_save_ms": (mean_ms(spans, "core.checkpoint_save"), "ms"),
    }
    wall = sum(durations(spans, ROOT))
    layers = self_times(spans)
    # ``other`` closes the sum to the wall time: on one thread it is the
    # root's own self time; a server's threads overlap its idle main
    # thread, so there it is the time no layer was busy.
    layers["other"] = max(0.0, wall - sum(v for k, v in layers.items() if k != "other"))
    for layer in SELF_TIME_LAYERS:
        metrics[f"selftime.{layer}_ms"] = (layers.get(layer, 0.0) * 1e3, "ms")
    metrics["selftime.wall_ms"] = (wall * 1e3, "ms")
    return metrics
