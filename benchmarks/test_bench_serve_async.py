"""Async front + multi-process plan lanes: throughput and p99 (SRV-A).

Three servings of the identical model under identical client load, all
over real HTTP sockets:

1. **threaded** — the legacy blocking front (``ReproServer``), serving
   in-process.  This is the denominator for every ratio.
2. **async** — the asyncio front door (``AsyncReproServer``), still
   serving in-process.  Same router, same bytes; the selector loop must
   not cost throughput versus one-thread-per-connection.
3. **process** — the asyncio front fanning micro-batches to
   ``WORKERS`` worker processes, each holding its own compiled
   :class:`~repro.runtime.InferencePlan`.

The machine-readable ratios land in ``outputs/serve_async.json`` for
the CI ``bench-regression`` job (baseline:
``baselines/serve_async.json``); the human table in
``outputs/serve_async.txt``.  p99 latency comes from the server's own
``repro_serve_latency_ms`` histogram (bucket-interpolated), so the
bench gates exactly what ``/v1/metrics`` reports.

The >= 2x multi-process acceptance floor only holds when there are
cores for the lanes to use; on the 1-core container the process case
measures IPC overhead, which the committed baseline captures honestly
(``cores`` is recorded in the JSON).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import save_protected
from repro.eval.reporting import format_table
from repro.models.registry import build_model
from repro.serve import (
    AsyncReproServer,
    ModelRegistry,
    ReproServer,
    ServeApp,
    ServeClient,
    ServeConfig,
    run_load,
)

NUM_CLASSES = 10
IMAGE_SIZE = 16
SAMPLES_PER_REQUEST = 8
REQUESTS = 64
CLIENT_THREADS = 8
WORKERS = 2


def _checkpoint(tmp_path: Path) -> Path:
    model = build_model(
        "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
    )
    return save_protected(
        tmp_path / "serve-async.npz",
        model,
        meta={
            "model": "lenet",
            "dataset": "synth10",
            "method": "none",
            "num_classes": NUM_CLASSES,
            "scale": 1.0,
            "image_size": IMAGE_SIZE,
            "seed": 0,
            "format": "Q15.16",
        },
    )


def _serve_and_load(
    server_cls, checkpoint: Path, **config_overrides
) -> dict[str, float]:
    """Serve one configuration, drive the load, return rate + p99."""
    registry = ModelRegistry(capacity=1)
    registry.register("m", checkpoint)
    config = ServeConfig(
        max_batch=64,
        max_latency_ms=2.0,
        max_pending=4096,  # measuring throughput, not admission sheds
        **config_overrides,
    )
    inputs = (
        np.random.default_rng(3)
        .standard_normal((SAMPLES_PER_REQUEST, 3, IMAGE_SIZE, IMAGE_SIZE))
        .astype(np.float32)
    )
    app = ServeApp(registry, config)
    with server_cls(app) as server:
        client = ServeClient(server.url, timeout=120.0)
        client.wait_ready()
        # Warm-up: model load + plan compile (per worker lane in process
        # mode) must not be billed to the timed window.
        client.predict(inputs, model="m")
        report = run_load(
            client,
            inputs,
            requests=REQUESTS,
            concurrency=CLIENT_THREADS,
            model="m",
        )
        assert report.errors == 0, "load errors poison the ratio"
        assert report.sheds == 0, "sheds mean the queue bound was hit"
        assert report.requests == REQUESTS
        p99_ms = app.metrics.latency_quantile(0.99, endpoint="/v1/predict")
    return {
        "seconds": report.seconds,
        "samples_per_s": report.samples_per_second,
        "p99_ms": p99_ms,
    }


@pytest.mark.benchmark(group="serve")
def test_async_front_and_process_lanes(benchmark, save_output, tmp_path):
    """SRV-A: async front holds throughput; process lanes scale it."""
    checkpoint = _checkpoint(tmp_path)

    def measure() -> dict[str, dict[str, float]]:
        return {
            "threaded": _serve_and_load(ReproServer, checkpoint),
            "async": _serve_and_load(AsyncReproServer, checkpoint),
            "process": _serve_and_load(
                AsyncReproServer,
                checkpoint,
                workers=WORKERS,
                mp_start="fork",
            ),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    threaded = results["threaded"]
    async_front = results["async"]
    process = results["process"]

    async_speedup = async_front["samples_per_s"] / threaded["samples_per_s"]
    process_speedup = process["samples_per_s"] / threaded["samples_per_s"]
    p99_speedup = threaded["p99_ms"] / process["p99_ms"]
    cores = os.cpu_count() or 1

    rows = [
        [
            label,
            f"{result['seconds']:.2f}",
            f"{result['samples_per_s']:,.0f}",
            f"{result['p99_ms']:.1f}",
        ]
        for label, result in results.items()
    ]
    text = "\n".join(
        [
            f"SRV-A  Serving fronts — {REQUESTS} requests x "
            f"{SAMPLES_PER_REQUEST} samples, LeNet/synth10, "
            f"{CLIENT_THREADS} client threads, {cores} core(s)",
            format_table(["front", "seconds", "samples/s", "p99 ms"], rows),
            f"async front vs threaded:   {async_speedup:.2f}x throughput",
            f"process lanes ({WORKERS}w) vs threaded: "
            f"{process_speedup:.2f}x throughput, {p99_speedup:.2f}x p99",
        ]
    )
    save_output("serve_async", text)

    outputs = Path(__file__).parent / "outputs"
    outputs.mkdir(exist_ok=True)
    payload = {
        "cases": {
            "async-front": {
                "speedup": round(async_speedup, 4),
                "threaded_samples_per_s": round(threaded["samples_per_s"], 1),
                "async_samples_per_s": round(async_front["samples_per_s"], 1),
                "async_p99_ms": round(async_front["p99_ms"], 3),
            },
            "process-lanes": {
                "speedup": round(process_speedup, 4),
                "workers": WORKERS,
                "process_samples_per_s": round(process["samples_per_s"], 1),
                "process_p99_ms": round(process["p99_ms"], 3),
            },
            "process-p99": {
                "speedup": round(p99_speedup, 4),
                "threaded_p99_ms": round(threaded["p99_ms"], 3),
                "process_p99_ms": round(process["p99_ms"], 3),
            },
        },
        "cores": cores,
    }
    (outputs / "serve_async.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # The asyncio front shares the router and the inference path with
    # the threaded front; it must not tax throughput for the privilege
    # of not parking a thread per connection.
    assert async_speedup >= 0.5, (
        f"async front lost {1 - async_speedup:.0%} throughput vs threaded"
    )
    if cores >= 4:
        # The multi-process acceptance floor from the serving tentpole:
        # with cores to spare, two plan lanes must at least double the
        # single-process threaded throughput (the GIL bound).
        assert process_speedup >= 2.0, (
            f"{WORKERS} worker processes on {cores} cores should give "
            f">= 2x threaded throughput, got {process_speedup:.2f}x"
        )
    else:
        # One core: lanes only add IPC overhead; just prove the fan-out
        # path served everything (asserted above) at a sane rate.
        assert process_speedup > 0.1
