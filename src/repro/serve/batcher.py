"""Request coalescing: many concurrent predicts, one forward pass.

Single-sample forward passes waste almost all their time in per-call
overhead (python dispatch, im2col setup, BLAS fixed costs); a batch of
32 costs barely more than a batch of 1.  :class:`MicroBatcher` exploits
that: concurrent ``submit`` calls enqueue their arrays, one worker thread
drains the queue into one concatenated batch — closing it when either
``max_batch`` samples are pending or ``max_latency`` elapsed since the
batch opened — run the model once, and scatter the results back to the
callers' futures.

The batcher is model-agnostic: it runs whatever ``run_batch`` callable
it was given (the serving app passes a lock-holding, chaos-aware
closure).
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["MicroBatcher"]


class _Pending:
    __slots__ = ("inputs", "future")

    def __init__(self, inputs: np.ndarray, future: Future) -> None:
        self.inputs = inputs
        self.future = future


_STOP = object()


class MicroBatcher:
    """Coalesce concurrent inference requests into batched forward passes.

    Parameters
    ----------
    run_batch:
        ``(inputs[N, ...]) -> outputs[N, ...]`` — one forward pass over a
        concatenated batch.  Exceptions propagate to every caller whose
        samples were in the failing batch.
    max_batch:
        Close a batch once this many samples are pending (>= 1).
    max_latency:
        Seconds to hold an open batch waiting for more requests.  ``0``
        disables waiting (each batch is whatever was already queued).
    on_batch:
        Optional ``(size, seconds)`` observer (metrics hook), called
        before the batch's futures resolve.
    """

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_latency: float = 0.005,
        on_batch: Callable[[int, float], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if not max_latency >= 0:  # NaN too: it would kill the worker
            raise ConfigurationError(
                f"max_latency must be >= 0, got {max_latency}"
            )
        self._run_batch = run_batch
        self.max_batch = int(max_batch)
        self.max_latency = float(max_latency)
        self._on_batch = on_batch
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._worker, name="repro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, inputs: np.ndarray) -> "Future[np.ndarray]":
        """Enqueue ``inputs`` (leading axis = samples); returns a future.

        The future resolves to the model outputs for exactly these
        samples, in order.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim < 1 or inputs.shape[0] < 1:
            raise ConfigurationError(
                "inputs must have a non-empty leading sample axis"
            )
        if inputs.shape[0] > self.max_batch:
            raise ConfigurationError(
                f"request carries {inputs.shape[0]} samples, more than "
                f"max_batch={self.max_batch}; split it client-side"
            )
        future: Future = Future()
        with self._close_lock:
            if self._closed:
                raise ConfigurationError("batcher is closed")
            self._queue.put(_Pending(inputs, future))
        return future

    def predict(self, inputs: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(inputs).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _collect(self, first: _Pending) -> list[_Pending]:
        """Grow a batch from ``first`` until size or latency closes it."""
        batch = [first]
        count = first.inputs.shape[0]
        deadline = time.monotonic() + self.max_latency
        while count < self.max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _STOP:
                # Close this batch; the worker loop stops on the signal.
                self._queue.put(_STOP)
                break
            if count + item.inputs.shape[0] > self.max_batch:
                # Would overflow: hand it back for the next batch.
                self._queue.put(item)
                break
            batch.append(item)
            count += item.inputs.shape[0]
        return batch

    def _run(self, batch: list[_Pending]) -> None:
        sizes = [item.inputs.shape[0] for item in batch]
        total = sum(sizes)
        started = time.monotonic()
        try:
            stacked = (
                batch[0].inputs
                if len(batch) == 1
                else np.concatenate([item.inputs for item in batch], axis=0)
            )
            outputs = self._run_batch(stacked)
            outputs = np.asarray(outputs)
            if outputs.shape[0] != total:
                raise ConfigurationError(
                    f"run_batch returned {outputs.shape[0]} rows for a "
                    f"batch of {total} samples"
                )
        except BaseException as error:  # noqa: BLE001 — fan the failure out
            for item in batch:
                if not item.future.cancelled():
                    item.future.set_exception(error)
            return
        elapsed = time.monotonic() - started
        # Observe before resolving: a caller that reads the metrics after
        # its response must already see the batch that served it.
        if self._on_batch is not None:
            self._on_batch(total, elapsed)
        offset = 0
        for item, size in zip(batch, sizes):
            if not item.future.cancelled():
                item.future.set_result(outputs[offset : offset + size])
            offset += size

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._run(self._collect(item))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, finish queued batches, join the worker."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._thread.join(timeout=timeout)
        # A request re-queued by _collect (overflow) can land behind the
        # stop sentinel and outlive the worker; fail it rather than
        # leaving its caller blocked on the future.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP and not item.future.done():
                item.future.set_exception(ConfigurationError("batcher is closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
