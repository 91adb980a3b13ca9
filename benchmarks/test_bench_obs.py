"""Disabled-instrumentation overhead bound (the obs side-band tax).

The runtime, campaign, and serving hot paths carry span/profiler hooks.
Disabled (the default), each instrumented section costs one function
call, one truth test, and a no-op context enter/exit.  This bench
measures that cost directly — a tight loop over a disabled ``span()`` —
and bounds the *per-forward* tax: the measured per-section cost times a
deliberate overcount of instrumented sections per plan forward must
stay under :data:`MAX_OVERHEAD_FRACTION` of the measured forward time.

The ratio is machine-independent (both sides run in-process on the
same core), so the bound holds on heterogeneous CI runners.  The CI
``obs-smoke`` job runs this bench; ``benchmarks/outputs/
obs_overhead.json`` records the measured numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.models.registry import build_model
from repro.obs import reset_tracing, span, tracing_enabled
from repro.runtime import compile_model
from repro.utils.timing import time_callable

OUTPUT = Path(__file__).parent / "outputs" / "obs_overhead.json"

#: Bound on the disabled-instrumentation tax as a fraction of one plan
#: forward (a typical dev-container measurement reads ~0.6%).
MAX_OVERHEAD_FRACTION = 0.02

#: Disabled spans timed per measurement round.
SPAN_LOOP = 50_000


def _span_loop() -> None:
    for _ in range(SPAN_LOOP):
        with span("bench.noop", key=1):
            pass


def test_disabled_overhead_fraction(save_output):
    bound = MAX_OVERHEAD_FRACTION
    reset_tracing()
    assert not tracing_enabled()

    model = build_model(
        "lenet", num_classes=10, scale=1.0, image_size=16, seed=0
    )
    plan = compile_model(model, (32, 3, 16, 16))
    batch = np.zeros((32, 3, 16, 16), dtype=np.float32)

    span_stats = time_callable(_span_loop, repeats=5, warmup=1)
    forward_stats = time_callable(lambda: plan(batch), repeats=9, warmup=2)
    per_span_seconds = span_stats["min"] / SPAN_LOOP
    forward_seconds = forward_stats["min"]
    # Deliberate overcount of instrumented sections on one forward:
    # the runtime.forward span plus, per kernel step, the prof guard in
    # the step loop and up to three phase guards inside the kernel —
    # each bounded above by a full disabled-span enter/exit (the guards
    # are cheaper: one attribute load and an `is not None` test).
    sections = 1 + 4 * len(plan.steps)
    overhead = per_span_seconds * sections / forward_seconds

    payload = {
        "per_span_seconds": per_span_seconds,
        "forward_seconds": forward_seconds,
        "sections_per_forward": sections,
        "overhead_fraction": overhead,
        "max_overhead_fraction": bound,
    }
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    save_output(
        "obs_overhead",
        "\n".join(
            [
                "Disabled-instrumentation overhead (lenet, batch 32):",
                f"  per disabled span : {per_span_seconds * 1e9:.0f} ns",
                f"  plan forward      : {forward_seconds * 1e3:.3f} ms",
                f"  sections/forward  : {sections} (deliberate overcount)",
                f"  overhead fraction : {overhead:.5f} (bound {bound:.2f})",
            ]
        ),
    )
    assert overhead < bound, (
        f"disabled obs instrumentation costs {overhead:.2%} of a plan "
        f"forward (bound {bound:.0%}); see {OUTPUT}"
    )
