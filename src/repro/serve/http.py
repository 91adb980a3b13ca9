"""The serving application and its threaded HTTP front.

:class:`ServeApp` glues the production serving tier together — registry,
admission control, micro-batch lanes (in-process threads or
:class:`~repro.serve.workers.WorkerPool` processes), optional chaos
engine, latency-SLO tracking, shared metrics — behind the versioned
``/v1`` API (see :mod:`repro.serve.protocol`):

- ``POST /v1/predict``  — typed predict (admitted, micro-batched).
- ``GET  /v1/models``   — registered checkpoints with metadata.
- ``GET  /v1/healthz``  — liveness + admission/worker/SLO reports.
- ``GET  /v1/metrics``  — metrics snapshot (JSON or
  ``?format=prometheus`` text exposition).

The PR-2 unversioned paths still work as deprecated aliases (same
bytes, plus a ``Deprecation`` header).  All routing, error mapping and
per-request observability live in :class:`repro.serve.routes.Router`,
shared with the asyncio front (:mod:`repro.serve.aio`);
:class:`ReproServer` here is the classic thread-per-connection
transport.

Overload does not queue unboundedly: :class:`~repro.serve.admission`
bounds pending requests globally and per model, and sheds the excess as
HTTP 429 with ``Retry-After``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.trace import span
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.chaos import ChaosConfig, ChaosEngine
from repro.serve.metrics import LATENCY_BUCKETS_MS, ServerMetrics
from repro.serve.protocol import PredictResponse
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.routes import RouteResult, Router
from repro.serve.slo import SloTracker
from repro.serve.workers import WorkerPool
from repro.utils.logging import get_logger

__all__ = ["ReproServer", "ServeApp", "ServeConfig"]

_logger = get_logger("serve.http")


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide serving knobs (see ``repro serve --help``).

    ``workers=0`` serves in-process (threaded lanes); ``workers >= 1``
    fans micro-batches out to that many worker processes, each holding
    its own compiled plans (``mp_start`` picks the start method).
    ``max_pending``/``model_pending`` bound the admission queue;
    ``slo_p99_ms`` arms the latency-SLO tracker surfaced in
    ``/v1/healthz``.
    """

    max_batch: int = 32
    max_latency_ms: float = 5.0
    batch_workers: int = 1
    request_timeout: float = 60.0
    chaos: ChaosConfig | None = None
    max_pending: int = 256
    model_pending: int | None = None
    workers: int = 0
    mp_start: str = "spawn"
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
            workers=config.batch_workers,
            on_batch=lambda size, _seconds: metrics.observe_batch(size),
        )


class _ProcessLane:
    """One model's multi-process lane: batcher fanning out to the pool.

    The parent holds no model — the batcher's ``run_batch`` ships the
    coalesced array to an idle worker process, which loads/compiles the
    checkpoint on first sight and runs chaos (if configured) inside its
    own address space with exact flip/restore semantics.  ``workers``
    batcher threads keep up to ``workers`` batches in flight, one per
    worker process.
    """

    def __init__(
        self,
        name: str,
        path: str,
        pool: WorkerPool,
        config: ServeConfig,
        metrics: ServerMetrics,
    ) -> None:
        self.name = name

        def run_batch(stacked: np.ndarray) -> np.ndarray:
            with span("serve.batch", model=name, size=len(stacked)):
                outputs, report = pool.run_batch(name, path, stacked)
            if report is not None:
                metrics.observe_chaos(name, report)
            return outputs

        self.batcher = MicroBatcher(
            run_batch,
            max_batch=config.max_batch,
            max_latency=config.max_latency_ms / 1000.0,
            workers=pool.workers,
            on_batch=lambda size, _seconds: metrics.observe_batch(size),
        )


class ServeApp:
    """Transport-independent serving logic (the HTTP fronts are shims).

    Tests and benchmarks drive :meth:`predict` (blocking) or
    :meth:`submit_predict` (future-returning, what the asyncio front
    awaits) directly; the transports parse bytes and write
    :class:`~repro.serve.routes.RouteResult`\\ s.
    """

    def __init__(self, registry: ModelRegistry, config: ServeConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        if self.config.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.config.workers}"
            )
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            model_pending=self.config.model_pending,
            on_shed=self.metrics.observe_shed,
            on_depth=self.metrics.observe_queue_depth,
        )
        self.slo = (
            SloTracker(self.config.slo_p99_ms, LATENCY_BUCKETS_MS)
            if self.config.slo_p99_ms is not None
            else None
        )
        self.router = Router(self)
        self.started_at = time.monotonic()  # repro-lint: disable=RPL009 — uptime epoch read once at construction
        self._lanes: dict[str, _Lane] = {}
        self._process_lanes: dict[str, _ProcessLane] = {}
        self._lanes_lock = threading.Lock()
        self._lane_builds: dict[str, threading.Lock] = {}
        self._preloaded: list[str] = []
        self._pool: WorkerPool | None = None
        self._pool_lock = threading.Lock()

    def __getstate__(self) -> dict[str, object]:
        """Apps hold locks and live batcher lanes; refuse to pickle (RPL007)."""
        raise TypeError(
            "ServeApp holds locks and live batcher lanes and cannot be "
            "pickled; build a fresh app per process"
        )

    @property
    def process_mode(self) -> bool:
        return self.config.workers > 0

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def _pool_handle(self) -> WorkerPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    workers=self.config.workers,
                    mp_start=self.config.mp_start,
                    chaos=self.config.chaos,
                    registry_capacity=self.registry.capacity,
                    request_timeout=self.config.request_timeout,
                    on_restart=self.metrics.observe_worker_restart,
                )
            return self._pool

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

    def _process_lane(self, name: str) -> _ProcessLane:
        with self._lanes_lock:
            lane = self._process_lanes.get(name)
            if lane is not None:
                return lane
            build_lock = self._lane_builds.setdefault(name, threading.Lock())
        with build_lock:
            with self._lanes_lock:
                lane = self._process_lanes.get(name)
                if lane is not None:
                    return lane
            spec = self.registry.spec(name)
            lane = _ProcessLane(
                name, spec.path, self._pool_handle(), self.config, self.metrics
            )
            with self._lanes_lock:
                self._process_lanes[name] = lane
            return lane

    def preload(self) -> list[str]:
        """Warm every registered model before serving the first request.

        In-process mode loads checkpoints, compiles their runtime plans,
        and builds serving lanes — the work that otherwise happens inside
        the first unlucky request.  Fleets larger than the registry
        capacity are warmed in a capacity-aware rotation rather than
        silently skipped: every checkpoint is loaded, compiled and laned once (so
        a missing or corrupt file fails at startup, not mid-traffic, and
        its manifest metadata is cached for ``GET /v1/models``), with
        LRU eviction retiring the earliest entries as the rotation
        proceeds — the last ``capacity`` models stay resident.

        In process mode the parent loads nothing; instead every worker
        lane is told to load and compile each checkpoint, so the fleet
        starts hot.  Returns all warmed names; ``GET /v1/healthz``
        reports them as ``preloaded`` and the since-evicted subset as
        ``preload_rotated``.
        """
        warmed: list[str] = []
        if self.process_mode:
            pool = self._pool_handle()
            for name in self.registry.names():
                spec = self.registry.spec(name)
                pool.warm(name, spec.path)
                self._process_lane(name)
                warmed.append(name)
                _logger.info(
                    "preloaded %s on %d worker lane(s) from %s",
                    name,
                    pool.workers,
                    spec.path,
                )
            self._preloaded = warmed
            return list(warmed)
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

    def _validate_inputs(
        self, array: np.ndarray, shape: tuple[int, int, int] | None
    ) -> np.ndarray:
        if shape is not None:
            if array.shape == shape:
                array = array[np.newaxis]
            if array.ndim != 4 or array.shape[1:] != shape:
                raise ConfigurationError(
                    f"inputs must be one sample or a batch of shape "
                    f"{shape}, got array of shape {array.shape}"
                )
            return array
        # No manifest geometry (old checkpoint, process mode): accept
        # any 3-d sample / 4-d batch; the worker's forward rejects
        # mismatches at run time.
        if array.ndim == 3:
            array = array[np.newaxis]
        if array.ndim != 4:
            raise ConfigurationError(
                "inputs must be one (C, H, W) sample or a batch of them, "
                f"got array of shape {array.shape}"
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
        array = np.asarray(inputs, dtype=np.float32)
        if self.process_mode:
            shape = self.registry.spec(name).input_shape
        else:
            shape = self.registry.get(name).input_shape
        array = self._validate_inputs(array, shape)
        ticket = self.admission.admit(name)
        try:
            future = self._submit(name, array)
        except BaseException:
            ticket.release()
            raise
        future.add_done_callback(lambda _future: ticket.release())
        return name, future

    def _submit(self, name: str, array: np.ndarray):
        if self.process_mode:
            return self._process_lane(name).batcher.submit(array)
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

    def _workers_report(self) -> dict[str, object]:
        if not self.process_mode:
            return {"mode": "thread", "count": self.config.batch_workers}
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return {
                "mode": "process",
                "count": self.config.workers,
                "mp_start": self.config.mp_start,
                "alive": 0,
                "restarts": 0,
            }
        return pool.report()

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
            # first request, just not resident right now.  In process
            # mode residency lives in the workers (the parent registry
            # is empty by design), so nothing is ever "rotated" here.
            "preload_rotated": []
            if self.process_mode
            else [name for name in self._preloaded if name not in resident],
            "chaos_ber": self.config.chaos.ber if self.config.chaos else None,
            "admission": self.admission.report(),
            "workers": self._workers_report(),
            "slo": self.slo.report() if self.slo is not None else None,
        }

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Per-request observability feed (called by the router)."""
        self.metrics.observe_request(endpoint, status, seconds)
        if self.slo is not None and endpoint == "/v1/predict":
            self.slo.observe(seconds * 1000.0)

    def close(self) -> None:
        """Drain and retire every lane, then the worker pool.

        Ordering matters for the SIGTERM drain: batchers close first
        (each finishes its queued batches — the FIFO drain the batcher
        guarantees), and only then is the pool drained and shut down, so
        no in-flight batch loses its worker.
        """
        with self._lanes_lock:
            lanes: list[_Lane | _ProcessLane] = list(self._lanes.values())
            lanes.extend(self._process_lanes.values())
            self._lanes = {}
            self._process_lanes = {}
        for lane in lanes:
            lane.batcher.close(timeout=self.config.drain_timeout_s)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(drain=True, timeout=self.config.drain_timeout_s)


class _Handler(BaseHTTPRequestHandler):
    """Byte shim: read the request, let the router do everything else."""

    server: "_HTTPServer"
    protocol_version = "HTTP/1.1"
    # The head and the body go out in two writes; with Nagle's algorithm
    # on, a kept-alive response's body waits ~40 ms for the client's
    # delayed ACK of the head.
    disable_nagle_algorithm = True

    def _send(self, result: RouteResult) -> None:
        self.send_response(result.status)
        self.send_header("Content-Type", result.content_type)
        self.send_header("Content-Length", str(len(result.body)))
        for name, value in result.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(result.body)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._send(self.server.app.router.handle("GET", self.path, None))

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length) if length > 0 else b""
        self._send(self.server.app.router.handle("POST", self.path, body))

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        _logger.debug("%s - %s", self.address_string(), format % args)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: ServeApp


class ReproServer:
    """Own the listening socket and background accept thread.

    ``port=0`` binds an ephemeral port; read the resolved one from
    :attr:`port` / :attr:`url`.  ``stop()`` is graceful: it stops
    accepting, finishes in-flight requests, and drains the batchers
    (and, in process mode, the worker pool).
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.app = app
        self._thread: threading.Thread | None = None

    def __getstate__(self) -> dict[str, object]:
        """Servers own a socket and accept thread; refuse to pickle (RPL007)."""
        raise TypeError(
            "ReproServer owns a listening socket and accept thread and "
            "cannot be pickled; start a fresh server per process"
        )

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        if self._thread is not None:
            raise ConfigurationError("server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        _logger.info("serving on %s", self.url)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=10.0)
        self._thread = None
        self._httpd.server_close()
        self.app.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
