"""The serving application: registry, admission, lanes, SLO, metrics.

:class:`ServeApp` glues the production serving tier together — registry,
admission control, in-process micro-batch lanes, optional chaos engine,
latency-SLO tracking, shared metrics — behind the versioned ``/v1`` API
(see :mod:`repro.serve.protocol`):

- ``POST /v1/predict``  — typed predict (admitted, micro-batched).
- ``GET  /v1/models``   — registered checkpoints with metadata.
- ``GET  /v1/healthz``  — liveness + admission/worker/SLO reports.
- ``GET  /v1/metrics``  — metrics snapshot (JSON or
  ``?format=prometheus`` text exposition).

All routing, error mapping and per-request observability live in
:class:`repro.serve.routes.Router`; the HTTP transport is the asyncio
front in :mod:`repro.serve.aio`.

Overload does not queue unboundedly: :class:`~repro.serve.admission`
bounds pending requests globally and per model, and sheds the excess as
HTTP 429 with ``Retry-After``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.trace import span
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.chaos import ChaosConfig, ChaosEngine
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import PredictResponse
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.routes import Router
from repro.serve.slo import SloTracker
from repro.utils.logging import get_logger

__all__ = ["ServeApp", "ServeConfig"]

_logger = get_logger("serve.http")


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide serving knobs (see ``repro serve --help``).

    Each model lane runs its batches on one thread.
    ``max_pending``/``model_pending`` bound the admission
    queue; ``slo_p99_ms`` arms the latency-SLO tracker surfaced in
    ``/v1/healthz``; ``drain_timeout_s`` bounds the shutdown drain.
    """

    max_batch: int = 32
    max_latency_ms: float = 5.0
    request_timeout: float = 60.0
    chaos: ChaosConfig | None = None
    max_pending: int = 256
    model_pending: int | None = None
    slo_p99_ms: float | None = None
    drain_timeout_s: float = 10.0


class _Lane:
    """One model's in-process serving lane: entry + batcher (+ chaos)."""

    def __init__(
        self, entry: ServedModel, config: ServeConfig, metrics: ServerMetrics
    ) -> None:
        self.entry = entry
        self.chaos = (
            ChaosEngine(entry, config.chaos) if config.chaos is not None else None
        )

        def run_batch(stacked: np.ndarray) -> np.ndarray:
            # entry.forward runs the compiled plan, which never touches
            # the model's shared training flag.
            with span("serve.batch", model=entry.name, size=len(stacked)):
                with entry.infer_lock:
                    if self.chaos is None:
                        return entry.forward(stacked)
                    outputs, report = self.chaos.run_batch(
                        entry.forward, stacked
                    )
            metrics.observe_chaos(entry.name, report)
            return outputs

        self.batcher = MicroBatcher(
            run_batch,
            max_batch=config.max_batch,
            max_latency=config.max_latency_ms / 1000.0,
            on_batch=lambda size, _seconds: metrics.observe_batch(size),
        )


class ServeApp:
    """Transport-independent serving logic (the HTTP front is a shim).

    Tests and benchmarks drive :meth:`predict` (blocking) or
    :meth:`submit_predict` (future-returning, what the asyncio front
    awaits) directly; the transport parses bytes and writes
    :class:`~repro.serve.routes.RouteResult`\\ s.
    """

    def __init__(self, registry: ModelRegistry, config: ServeConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            model_pending=self.config.model_pending,
            on_shed=self.metrics.observe_shed,
            on_depth=self.metrics.observe_queue_depth,
        )
        self.slo = (
            SloTracker(self.config.slo_p99_ms, self.metrics.serve_latency)
            if self.config.slo_p99_ms is not None
            else None
        )
        self.router = Router(self)
        self.started_at = time.monotonic()  # repro-lint: disable=RPL009 — uptime epoch read once at construction
        self._lanes: dict[str, _Lane] = {}
        self._lanes_lock = threading.Lock()
        self._lane_builds: dict[str, threading.Lock] = {}
        self._preloaded: list[str] = []

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def _prune_stale_lanes(self, current: str) -> None:
        """Retire lanes whose models the registry has evicted.

        The residency snapshot is taken under ``_lanes_lock`` so a lane
        created for a concurrently loaded model can't be mistaken for
        stale; batchers are closed outside the lock because close()
        joins worker threads (possibly mid-forward-pass) and must not
        stall other models' predicts.
        """
        stale: list[_Lane] = []
        with self._lanes_lock:
            resident = set(self.registry.resident_names())
            for name in list(self._lanes):
                if name != current and name not in resident:
                    stale.append(self._lanes.pop(name))
        for lane in stale:
            lane.batcher.close()

    def _lane(self, entry: ServedModel) -> _Lane:
        self._prune_stale_lanes(entry.name)
        with self._lanes_lock:
            lane = self._lanes.get(entry.name)
            if lane is not None and lane.entry is entry:
                return lane
            build_lock = self._lane_builds.setdefault(
                entry.name, threading.Lock()
            )
        # Single-flight lane construction per name, outside _lanes_lock:
        # building a lane can be slow (chaos mode quantises the model
        # and snapshots its fault space) and must not block predicts on
        # other, already-warm models.
        with build_lock:
            with self._lanes_lock:
                lane = self._lanes.get(entry.name)
                if lane is not None and lane.entry is entry:
                    return lane
                old = self._lanes.pop(entry.name, None)
            if old is not None:
                # The registry evicted and reloaded this name; retire
                # the stale lane (in-flight batches still complete).
                old.batcher.close()
            lane = _Lane(entry, self.config, self.metrics)
            with self._lanes_lock:
                self._lanes[entry.name] = lane
            return lane

    def preload(self) -> list[str]:
        """Warm every registered model before serving the first request.

        Loads checkpoints, compiles their runtime plans, and builds
        serving lanes — the work that otherwise happens inside the first
        unlucky request.  Fleets larger than the registry
        capacity are warmed in a capacity-aware rotation rather than
        silently skipped: every checkpoint is loaded, compiled and laned once (so
        a missing or corrupt file fails at startup, not mid-traffic, and
        its manifest metadata is cached for ``GET /v1/models``), with
        LRU eviction retiring the earliest entries as the rotation
        proceeds — the last ``capacity`` models stay resident.  Returns
        all warmed names; ``GET /v1/healthz`` reports them as
        ``preloaded`` and the since-evicted subset as ``preload_rotated``.
        """
        warmed: list[str] = []
        for name in self.registry.names():
            entry = self.registry.get(name)
            self._lane(entry)
            warmed.append(name)
            _logger.info("preloaded %s from %s", name, entry.path)
        rotated = [
            name for name in warmed if name not in self.registry.resident_names()
        ]
        if rotated:
            _logger.info(
                "preload rotated %d model(s) beyond registry capacity "
                "(%d): %s — warmed and validated, no longer resident",
                len(rotated),
                self.registry.capacity,
                ", ".join(rotated),
            )
        self._preloaded = warmed
        return list(warmed)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def resolve_model_name(self, name: str | None) -> str:
        if name is not None:
            return str(name)
        names = self.registry.names()
        if len(names) == 1:
            return names[0]
        raise ConfigurationError(
            "request names no model and the server hosts "
            f"{len(names)}; pass \"model\" (one of: {', '.join(names)})"
        )

    @staticmethod
    def _validate_inputs(
        array: np.ndarray, shape: tuple[int, int, int]
    ) -> np.ndarray:
        if array.shape == shape:
            array = array[np.newaxis]
        if array.ndim != 4 or array.shape[1:] != shape:
            raise ConfigurationError(
                f"inputs must be one sample or a batch of shape "
                f"{shape}, got array of shape {array.shape}"
            )
        return array

    def submit_predict(
        self, inputs: np.ndarray, model: str | None = None
    ) -> tuple[str, "Future[np.ndarray]"]:
        """Admit and enqueue one predict; returns ``(name, future)``.

        The future resolves to the logits array for exactly these
        samples.  Raises :class:`repro.errors.ServerOverloadedError`
        when admission sheds the request.  The admission ticket is
        released when the future settles, so pending counts track work
        actually inside the server.
        """
        name = self.resolve_model_name(model)
        array = self._validate_inputs(
            np.asarray(inputs, dtype=np.float32),
            self.registry.get(name).input_shape,
        )
        ticket = self.admission.admit(name)
        try:
            future = self._submit(name, array)
        except BaseException:
            ticket.release()
            raise
        future.add_done_callback(lambda _future: ticket.release())
        return name, future

    def _submit(self, name: str, array: np.ndarray):
        entry = self.registry.get(name)
        try:
            return self._lane(entry).batcher.submit(array)
        except ConfigurationError as error:
            # Capacity-thrash window: the lane can be retired between
            # our registry.get and the submit if another thread evicted
            # this model.  One reload-and-retry keeps the request valid.
            if "closed" not in str(error):
                raise
            entry = self.registry.get(name)
            return self._lane(entry).batcher.submit(array)

    def predict(
        self,
        inputs: np.ndarray,
        model: str | None = None,
        return_logits: bool = False,
    ) -> dict[str, object]:
        """Blocking predict; returns the ``/v1/predict`` payload dict."""
        name, future = self.submit_predict(inputs, model=model)
        logits = future.result(timeout=self.config.request_timeout)
        return PredictResponse.from_result(
            name, np.asarray(logits), return_logits
        ).to_payload()

    def describe_models(self) -> dict[str, object]:
        # Read-only view: must not touch LRU order or trigger model
        # loads (non-resident entries are described from a cheap
        # manifest peek).
        resident = {
            entry.name: entry for entry in self.registry.resident_entries()
        }
        models = []
        for name in self.registry.names():
            entry = resident.get(name)
            if entry is not None:
                models.append({**entry.describe(), "resident": True})
            else:
                models.append(
                    {**self.registry.describe_spec(name), "resident": False}
                )
        return {
            "models": models,
            "capacity": self.registry.capacity,
            "loads": self.registry.loads,
            "evictions": self.registry.evictions,
            "chaos": self.config.chaos is not None,
        }

    def health(self) -> dict[str, object]:
        resident = set(self.registry.resident_names())
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "models": self.registry.names(),
            "resident": self.registry.resident_names(),
            "preloaded": list(self._preloaded),
            # Warmed at startup but since rotated out by LRU pressure
            # (fleet larger than capacity): validated, reloadable on
            # first request, just not resident right now.
            "preload_rotated": [
                name for name in self._preloaded if name not in resident
            ],
            "chaos_ber": self.config.chaos.ber if self.config.chaos else None,
            "admission": self.admission.report(),
            "slo": self.slo.report() if self.slo is not None else None,
        }

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Per-request observability feed (called by the router)."""
        self.metrics.observe_request(endpoint, status, seconds)
        if self.slo is not None and endpoint == "/v1/predict":
            self.slo.observe(seconds * 1000.0)

    def close(self) -> None:
        """Drain and retire every lane.

        Each batcher finishes its queued batches before it closes (the
        FIFO drain the batcher guarantees), bounded by the drain timeout.
        """
        with self._lanes_lock:
            lanes = list(self._lanes.values())
            self._lanes = {}
        for lane in lanes:
            lane.batcher.close(timeout=self.config.drain_timeout_s)
