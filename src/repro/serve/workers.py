"""Multi-process plan lanes: compiled inference in worker processes.

The threaded serving path keeps every model — and its compiled
:class:`repro.runtime.InferencePlan` — in the server process, which caps
throughput at one GIL.  :class:`WorkerPool` moves the forward passes out:
each worker process owns a private :class:`~repro.serve.registry.ModelRegistry`
(so plans compile once per worker and never cross a process boundary —
they cannot: lanes, registries and plans all refuse pickling under
RPL007), and the parent ships only ``(name, checkpoint_path, inputs)``
over a pipe.  Workers load and compile lazily on first sight of a name,
or eagerly via :meth:`WorkerPool.warm`.

Chaos mode keeps its exact flip/restore semantics *inside each worker*:
every worker builds its own :class:`~repro.serve.chaos.ChaosEngine` per
model, seeded ``derive_seed(seed, "lane", index)`` so lanes inject
distinct but reproducible fault streams, and returns the picklable
:class:`~repro.serve.metrics.ChaosBatchReport` for the parent's metrics.

Fault tolerance: a batch sent to a worker that died mid-service raises
``EOFError``/``OSError`` at the pipe; the pool restarts that lane in
place and resubmits the batch once — queued requests never drop because
the queue lives in the parent's micro-batcher, not the worker.  A
restarted lane's chaos stream restarts from batch 0 (the same semantics
as evicting and reloading a model in the threaded path).

``close(drain=True)`` takes every lane out of the idle pool first — an
in-flight batch therefore finishes before its worker sees the shutdown
message — then joins, then terminates stragglers past the timeout.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import replace
from multiprocessing.connection import Connection
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    ReproError,
    ServerOverloadedError,
    ShapeError,
)
from repro.serve.chaos import ChaosConfig
from repro.serve.metrics import ChaosBatchReport
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = ["WorkerLane", "WorkerPool"]

_logger = get_logger("serve.workers")

#: Remote exception class names the parent re-raises as themselves.
_ERROR_TYPES: dict[str, type[Exception]] = {
    "ConfigurationError": ConfigurationError,
    "ShapeError": ShapeError,
    "ServerOverloadedError": ServerOverloadedError,
    "ReproError": ReproError,
}


def _worker_main(
    conn: Connection,
    index: int,
    capacity: int,
    chaos_config: ChaosConfig | None,
) -> None:
    """Worker-process entry point: serve pipe requests until shutdown.

    Top-level (not a closure) so it imports cleanly under the ``spawn``
    start method.  Every request is answered — exceptions become
    ``("error", classname, message)`` replies — so the parent never
    hangs on a recv unless the process itself dies.
    """
    from repro.serve.chaos import ChaosEngine
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(capacity=capacity)
    engines: dict[str, ChaosEngine] = {}

    def entry_for(name: str, path: str):
        if name not in registry:
            registry.register(name, path)
        return registry.get(name)

    def forward(name: str, path: str, inputs: np.ndarray, chaos: bool):
        entry = entry_for(name, path)
        with entry.infer_lock:
            if not chaos or chaos_config is None:
                return entry.forward(inputs), None
            engine = engines.get(name)
            if engine is None:
                engine = engines[name] = ChaosEngine(entry, chaos_config)
            return engine.run_batch(entry.forward, inputs)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing left to serve
        op = message[0]
        try:
            if op == "shutdown":
                conn.send(("ok", None, None))
                return
            if op == "warm":
                _, name, path = message
                entry_for(name, path)
                conn.send(("ok", None, None))
            elif op in ("predict", "predict_clean"):
                _, name, path, inputs = message
                outputs, report = forward(
                    name, path, inputs, chaos=(op == "predict")
                )
                conn.send(("ok", np.asarray(outputs), report))
            else:
                conn.send(("error", "ConfigurationError", f"unknown op {op!r}"))
        except BaseException as error:  # noqa: BLE001 — shipped to the parent
            try:
                conn.send(("error", type(error).__name__, str(error)))
            except (OSError, ValueError):
                return


class WorkerLane:
    """One worker process plus the parent's end of its pipe."""

    def __init__(
        self,
        index: int,
        context: multiprocessing.context.BaseContext,
        capacity: int,
        chaos_config: ChaosConfig | None,
    ) -> None:
        self.index = index
        parent_conn, child_conn = context.Pipe()
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, index, capacity, chaos_config),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def __getstate__(self) -> dict[str, object]:
        """Lanes own a process and a pipe; refuse to pickle (RPL007)."""
        raise TypeError(
            "WorkerLane owns a live process and pipe and cannot be "
            "pickled; spawn lanes in the owning process"
        )

    def request(self, message: tuple, timeout: float) -> tuple:
        """One round trip; raises ``EOFError``/``OSError`` on lane death."""
        self.conn.send(message)
        if not self.conn.poll(timeout):
            raise TimeoutError(
                f"worker {self.index} did not answer within {timeout}s"
            )
        return self.conn.recv()

    def shutdown(self, timeout: float) -> None:
        try:
            self.conn.send(("shutdown",))
            self.conn.poll(timeout)
        except (OSError, ValueError, EOFError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Fixed fleet of worker lanes with restart-in-place fault tolerance.

    Parameters
    ----------
    workers:
        Lane count (>= 1).  Up to this many batches run concurrently.
    mp_start:
        Multiprocessing start method (``"spawn"`` or ``"fork"``).
    chaos:
        Optional chaos config; each lane re-seeds it per its index.
    registry_capacity:
        Resident-model cap inside each worker.
    request_timeout:
        Seconds a lane may take to answer one batch before the pool
        declares it wedged and restarts it.
    on_restart:
        Optional zero-argument observer called per restart (metrics).
    """

    def __init__(
        self,
        workers: int,
        mp_start: str = "spawn",
        chaos: ChaosConfig | None = None,
        registry_capacity: int = 4,
        request_timeout: float = 60.0,
        on_restart: Callable[[], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if mp_start not in ("spawn", "fork", "forkserver"):
            raise ConfigurationError(
                f'mp_start must be "spawn", "fork" or "forkserver", '
                f"got {mp_start!r}"
            )
        self.mp_start = mp_start
        self.workers = int(workers)
        self.registry_capacity = int(registry_capacity)
        self.request_timeout = float(request_timeout)
        self._chaos = chaos
        self._context = multiprocessing.get_context(mp_start)
        self._on_restart = on_restart
        self._gate = threading.Lock()
        self._closed = False
        self.restarts = 0
        self._lanes: list[WorkerLane] = [
            self._spawn(index) for index in range(self.workers)
        ]
        self._idle: queue.Queue[WorkerLane] = queue.Queue()
        for lane in self._lanes:
            self._idle.put(lane)

    def __getstate__(self) -> dict[str, object]:
        """Pools own processes, pipes and locks; refuse to pickle (RPL007)."""
        raise TypeError(
            "WorkerPool owns worker processes and pipes and cannot be "
            "pickled; build one per server process"
        )

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def _lane_chaos(self, index: int) -> ChaosConfig | None:
        if self._chaos is None:
            return None
        # Distinct, reproducible fault streams per lane: same traffic on
        # the same lane index injects the same faults.
        return replace(
            self._chaos, seed=derive_seed(self._chaos.seed, "lane", index)
        )

    def _spawn(self, index: int) -> WorkerLane:
        return WorkerLane(
            index=index,
            context=self._context,
            capacity=self.registry_capacity,
            chaos_config=self._lane_chaos(index),
        )

    def _restart(self, lane: WorkerLane) -> WorkerLane:
        _logger.warning(
            "worker %d died or wedged; restarting in place", lane.index
        )
        lane.shutdown(timeout=1.0)
        fresh = self._spawn(lane.index)
        with self._gate:
            self._lanes[self._lanes.index(lane)] = fresh
            self.restarts += 1
        if self._on_restart is not None:
            self._on_restart()
        return fresh

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _checkout(self) -> WorkerLane:
        with self._gate:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
        # Blocks while every lane is busy; the micro-batcher above this
        # pool runs at most `workers` concurrent batches, so waits here
        # are transient (a lane mid-restart).
        try:
            return self._idle.get(timeout=self.request_timeout)
        except queue.Empty:
            with self._gate:
                if self._closed:
                    raise ConfigurationError("worker pool is closed") from None
            raise ReproError(
                f"no worker lane became idle within {self.request_timeout}s"
            ) from None

    def _roundtrip(self, lane: WorkerLane, message: tuple) -> tuple:
        """Send once; on lane death or wedge, restart and resubmit once.

        Inference batches are pure (chaos restores parameters before
        replying), so one resubmission after a crash cannot double-apply
        anything — the lost batch simply never produced output.
        """
        try:
            return lane.request(message, self.request_timeout), lane
        except (EOFError, OSError, BrokenPipeError, TimeoutError):
            fresh = self._restart(lane)
            return fresh.request(message, self.request_timeout), fresh

    def _unpack(self, reply: tuple) -> tuple[np.ndarray, ChaosBatchReport | None]:
        status = reply[0]
        if status == "ok":
            return reply[1], reply[2]
        kind, message = reply[1], reply[2]
        error_type = _ERROR_TYPES.get(kind)
        if error_type is not None:
            raise error_type(message)
        raise ReproError(f"worker error ({kind}): {message}")

    def run_batch(
        self, name: str, path: str, inputs: np.ndarray, chaos: bool = True
    ) -> tuple[np.ndarray, ChaosBatchReport | None]:
        """Run one coalesced batch on an idle lane; returns (logits, report)."""
        lane = self._checkout()
        returned = False
        try:
            op = "predict" if chaos else "predict_clean"
            reply, lane = self._roundtrip(lane, (op, name, path, inputs))
            self._idle.put(lane)
            returned = True
            return self._unpack(reply)
        finally:
            if not returned:
                self._idle.put(lane)

    def warm(self, name: str, path: str) -> None:
        """Load (and compile) ``name`` on every lane before traffic."""
        for _ in range(self.workers):
            lane = self._checkout()
            try:
                reply, lane = self._roundtrip(lane, ("warm", name, path))
                self._unpack(reply)
            finally:
                self._idle.put(lane)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def report(self) -> dict[str, object]:
        """JSON-ready lane state for ``GET /v1/healthz``."""
        with self._gate:
            lanes = list(self._lanes)
            restarts = self.restarts
        return {
            "mode": "process",
            "count": len(lanes),
            "mp_start": self.mp_start,
            "alive": sum(1 for lane in lanes if lane.process.is_alive()),
            "restarts": restarts,
        }

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Shut every lane down; with ``drain``, in-flight batches finish.

        Draining works by reclaiming lanes through the idle queue — a
        lane serving a batch is not idle, so it is only reclaimed (and
        only then told to shut down) after replying to its caller.
        """
        with self._gate:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes)
        reclaimed: list[WorkerLane] = []
        if drain:
            for _ in lanes:
                try:
                    reclaimed.append(self._idle.get(timeout=timeout))
                except queue.Empty:
                    break
        for lane in lanes:
            lane.shutdown(timeout=timeout if lane in reclaimed else 1.0)
