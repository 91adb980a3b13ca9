"""Admission control: bounded queues and load shedding for the serving tier.

An unbounded accept queue turns overload into unbounded latency — every
request eventually gets served, seconds too late to matter.  The
production stance is the opposite: bound the number of requests pending
anywhere in the server (accept queue + batcher queues + in-flight
batches), and when the bound is hit, *shed* — fail fast with HTTP 429
and a ``Retry-After`` hint so well-behaved clients back off instead of
piling on.

:class:`AdmissionController` tracks two levels:

- a **global** bound (``max_pending``) across all models, sized to the
  server's total queue memory and latency budget;
- an optional **per-model** bound (``model_pending``), so one hot model
  cannot starve the others' share of the queue.

``admit()`` either returns a :class:`Ticket` (release it when the
request leaves the server, success or failure — it is idempotent) or
raises :class:`repro.errors.ServerOverloadedError` carrying the backoff
hint.  The hint scales with queue pressure: a barely-full queue suggests
a short retry, a deeply saturated one suggests a longer pause.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.errors import ConfigurationError, ServerOverloadedError

__all__ = ["AdmissionController", "Ticket"]


class Ticket:
    """One admitted request's slot; release exactly decrements once.

    ``release()`` is idempotent so it can be wired as both a future
    done-callback and a finally-block without double-counting.
    """

    __slots__ = ("_controller", "_model", "_released")

    def __init__(self, controller: "AdmissionController", model: str) -> None:
        self._controller = controller
        self._model = model
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self._model)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class AdmissionController:
    """Global + per-model pending bounds with shed-on-overflow.

    Parameters
    ----------
    max_pending:
        Requests allowed pending server-wide (>= 1).
    model_pending:
        Optional per-model pending bound (>= 1, <= ``max_pending``);
        ``None`` leaves only the global bound.
    on_shed:
        Optional ``(model, reason)`` observer, called on every rejected
        admission with reason ``"global"`` or ``"model"`` (metrics hook).
    on_depth:
        Optional ``(model, depth)`` observer, called whenever a model's
        pending depth changes (queue-depth gauge hook).
    """

    def __init__(
        self,
        max_pending: int = 256,
        model_pending: int | None = None,
        on_shed: Callable[[str, str], None] | None = None,
        on_depth: Callable[[str, int], None] | None = None,
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if model_pending is not None:
            if model_pending < 1:
                raise ConfigurationError(
                    f"model_pending must be >= 1, got {model_pending}"
                )
            if model_pending > max_pending:
                raise ConfigurationError(
                    f"model_pending ({model_pending}) cannot exceed "
                    f"max_pending ({max_pending})"
                )
        self.max_pending = int(max_pending)
        self.model_pending = None if model_pending is None else int(model_pending)
        self._on_shed = on_shed
        self._on_depth = on_depth
        self._lock = threading.Lock()
        self._pending = 0
        self._per_model: dict[str, int] = {}
        self.admitted = 0
        self.shed = 0

    def _retry_after(self) -> float:
        """Backoff hint in seconds, scaled to queue saturation.

        At the admission edge the queue is by definition full; the hint
        grows with how much *deeper* the server-wide pressure is likely
        to be — a small queue drains in well under a second, a deep one
        deserves a real pause.  Clamped to [0.1, 5.0].
        """
        depth_factor = self._pending / 64.0
        return round(min(5.0, max(0.1, depth_factor)), 3)

    def admit(self, model: str) -> Ticket:
        """Reserve a pending slot for ``model`` or shed the request."""
        with self._lock:
            if self._pending >= self.max_pending:
                self.shed += 1
                retry_after = self._retry_after()
                reason = "global"
            elif (
                self.model_pending is not None
                and self._per_model.get(model, 0) >= self.model_pending
            ):
                self.shed += 1
                retry_after = self._retry_after()
                reason = "model"
            else:
                self._pending += 1
                depth = self._per_model.get(model, 0) + 1
                self._per_model[model] = depth
                self.admitted += 1
                reason = None
        if reason is not None:
            if self._on_shed is not None:
                self._on_shed(model, reason)
            scope = (
                "server is at capacity"
                if reason == "global"
                else f"model {model!r} is at capacity"
            )
            raise ServerOverloadedError(
                f"{scope} ({self.max_pending} pending requests max); "
                f"retry after {retry_after}s",
                retry_after_s=retry_after,
            )
        if self._on_depth is not None:
            self._on_depth(model, depth)
        return Ticket(self, model)

    def _release(self, model: str) -> None:
        with self._lock:
            self._pending = max(0, self._pending - 1)
            depth = max(0, self._per_model.get(model, 0) - 1)
            if depth:
                self._per_model[model] = depth
            else:
                self._per_model.pop(model, None)
        if self._on_depth is not None:
            self._on_depth(model, depth)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def depth(self, model: str) -> int:
        with self._lock:
            return self._per_model.get(model, 0)

    def report(self) -> dict[str, object]:
        """JSON-ready state for ``GET /v1/healthz``."""
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self.max_pending,
                "model_pending": self.model_pending,
                "per_model": dict(sorted(self._per_model.items())),
                "admitted": self.admitted,
                "shed": self.shed,
            }
