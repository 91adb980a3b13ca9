"""Batched inference serving for protected checkpoints.

``repro.serve`` turns the offline reproduction into a deployable
service: ``repro protect`` writes a checkpoint, ``repro serve`` puts it
behind the versioned ``/v1`` HTTP API, and chaos mode injects the
paper's bit-flip faults into the *live* model so resilience is
observable under traffic.

Architecture (stdlib-only — ``asyncio``, ``queue``, ``threading``,
``urllib``):

- :mod:`repro.serve.protocol` (``protocol.py``) defines the typed
  ``/v1`` messages (:class:`PredictRequest`, :class:`PredictResponse`,
  :class:`ModelInfo`, :class:`HealthReport`, ...) serialised with the
  store's exact-float JSON encoder.
- :class:`ModelRegistry` (``registry.py``) maps serving names to
  ``save_protected`` checkpoints, loads them on demand, keeps at most
  ``capacity`` resident with LRU eviction, and gives each model an
  ``infer_lock``.
- :class:`MicroBatcher` (``batcher.py``) coalesces concurrent predict
  requests into one forward pass.
- :class:`AdmissionController` (``admission.py``) bounds pending
  requests globally and per model; the overflow is shed as HTTP 429
  with ``Retry-After`` (:class:`repro.errors.ServerOverloadedError`).
- :class:`SloTracker` (``slo.py``) turns a ``--slo-p99-ms`` target into
  p50/p99 estimates and an error-budget burn rate in ``/v1/healthz``.
- :class:`ChaosEngine` (``chaos.py``) reuses
  :class:`repro.fault.FaultInjector` to flip parameter bits at a
  configured BER around each batch — exact restore guaranteed — and
  counts silent data corruptions against a fault-free forward pass.
- :class:`ServerMetrics` (``metrics.py``) aggregates request counts,
  per-endpoint latency histograms, batch-size distribution, shed
  counters, and per-model chaos/SDC counters for ``GET /v1/metrics``.
- :class:`Router` (``routes.py``) is the one transport-neutral code
  path from (method, path, body) to response bytes; :class:`ServeApp`
  (``http.py``) owns the in-process lanes behind it, and
  :class:`AsyncReproServer` (``aio.py``) is the asyncio HTTP front;
  :class:`ServeClient` / :func:`run_load` (``client.py``) are the
  matching typed client and load generator.

Quick start (library)::

    from repro.serve import AsyncReproServer, ModelRegistry, ServeApp, ServeConfig

    registry = ModelRegistry(capacity=2)
    registry.register("lenet-fitact", "lenet-fitact.npz")
    app = ServeApp(registry, ServeConfig(max_batch=32))
    with AsyncReproServer(app) as server:
        print(server.url)  # ephemeral port
        ...

or from the CLI: ``repro serve --checkpoint lenet-fitact.npz --port 8080
--preload --slo-p99-ms 50 --chaos-ber 1e-5``.
"""

from repro.serve.admission import AdmissionController, Ticket
from repro.serve.aio import AsyncReproServer
from repro.serve.batcher import MicroBatcher
from repro.serve.chaos import ChaosConfig, ChaosEngine
from repro.serve.client import LoadReport, ServeClient, run_load
from repro.serve.http import ServeApp, ServeConfig
from repro.serve.metrics import ChaosBatchReport, Histogram, ServerMetrics
from repro.serve.protocol import (
    HealthReport,
    ModelInfo,
    ModelList,
    PredictRequest,
    PredictResponse,
)
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.routes import Router
from repro.serve.slo import SloTracker

__all__ = [
    "AdmissionController",
    "AsyncReproServer",
    "ChaosBatchReport",
    "ChaosConfig",
    "ChaosEngine",
    "HealthReport",
    "Histogram",
    "LoadReport",
    "MicroBatcher",
    "ModelInfo",
    "ModelList",
    "ModelRegistry",
    "PredictRequest",
    "PredictResponse",
    "Router",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServedModel",
    "ServerMetrics",
    "SloTracker",
    "Ticket",
    "run_load",
]
