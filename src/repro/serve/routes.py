"""Transport-neutral routing for the ``/v1`` serving API.

The HTTP front (:class:`~repro.serve.aio.AsyncReproServer`) and the
in-process tests delegate here, so there is exactly one code path from
(method, path, body) to response bytes.  Only the versioned paths route;
any other path answers 404.

The router also owns the error→status mapping (including the 429 +
``Retry-After`` shed path) and the per-request observability: one
``serve.request`` span, the per-endpoint latency histogram, and the SLO
tracker feed.

Predicts split into a non-blocking half and a completion half
(:meth:`Router.begin` → :class:`PendingPredict`) so the asyncio front
can await the batcher future without holding a thread;
:meth:`Router.handle` blocks through both halves for in-process callers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

import numpy as np

from repro.errors import ConfigurationError, ReproError, ServerOverloadedError
from repro.obs.trace import span
from repro.serve.protocol import (
    ErrorBody,
    PredictRequest,
    PredictResponse,
    dump_payload,
)
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.serve.http import ServeApp

__all__ = ["PendingPredict", "RouteResult", "Router"]

_logger = get_logger("serve.routes")

JSON_CONTENT = "application/json"
PROMETHEUS_CONTENT = "text/plain; version=0.0.4; charset=utf-8"

_PREDICT = "/v1/predict"
_MODELS = "/v1/models"
_HEALTHZ = "/v1/healthz"
_METRICS = "/v1/metrics"
_CAMPAIGN = "/v1/campaign"


@dataclass(frozen=True)
class RouteResult:
    """One fully rendered response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT
    headers: tuple[tuple[str, str], ...] = ()


class _NoRoute(Exception):
    """Internal: unknown path; maps to the 404 no-route body."""

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self.path = path


@dataclass
class PendingPredict:
    """A predict admitted and queued, awaiting its batcher future.

    The caller resolves :attr:`future` its own way — blocking
    ``result()`` in :meth:`Router.handle`, ``asyncio.wrap_future`` on the
    asyncio front — then calls :meth:`finish` or :meth:`fail` to render
    the response (which also closes out the request's latency
    observation, so queue wait counts toward the SLO).
    """

    router: "Router"
    endpoint: str
    started: float
    model: str
    return_logits: bool
    future: "Future[np.ndarray]" = field(repr=False)

    def finish(self, logits: np.ndarray) -> RouteResult:
        response = PredictResponse.from_result(
            self.model, logits, self.return_logits
        )
        return self.router._complete(
            200, response.to_payload(), JSON_CONTENT, (), self.endpoint, self.started
        )

    def fail(self, error: BaseException) -> RouteResult:
        return self.router._error_result(error, self.endpoint, self.started)


class Router:
    """Route, execute, observe, and render — once, for every caller."""

    def __init__(self, app: "ServeApp") -> None:
        self.app = app

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def handle(self, method: str, raw_path: str, body: bytes | None) -> RouteResult:
        """Blocking dispatch: resolves predict futures in-line."""
        outcome = self.begin(method, raw_path, body)
        if isinstance(outcome, RouteResult):
            return outcome
        try:
            logits = outcome.future.result(
                timeout=self.app.config.request_timeout
            )
        except BaseException as error:  # noqa: BLE001 — rendered as a response
            return outcome.fail(error)
        return outcome.finish(logits)

    def begin(
        self, method: str, raw_path: str, body: bytes | None
    ) -> RouteResult | PendingPredict:
        """Non-blocking dispatch.

        GET endpoints and every error path return a finished
        :class:`RouteResult`; an admitted predict returns a
        :class:`PendingPredict` for the transport to await.
        """
        path, _, query = raw_path.partition("?")
        endpoint = path.rstrip("/") or "/"
        # Request latency spans an await boundary on the asyncio front,
        # which the accumulating Timer cannot bridge; these paired
        # monotonic reads are the serving tier's one latency measurement.
        started = time.monotonic()  # repro-lint: disable=RPL009 — request latency measured once at the transport edge
        with span("serve.request", endpoint=endpoint):
            try:
                if method == "POST" and endpoint == _PREDICT:
                    return self._begin_predict(body, endpoint, started)
                if method == "GET":
                    payload = self._route_get(endpoint, query)
                else:
                    raise _NoRoute(endpoint)
            except BaseException as error:  # noqa: BLE001 — rendered as a response
                return self._error_result(error, endpoint, started)
        if isinstance(payload, str):
            return self._complete_text(
                200, payload, PROMETHEUS_CONTENT, endpoint, started
            )
        return self._complete(200, payload, JSON_CONTENT, (), endpoint, started)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _route_get(self, endpoint: str, query: str) -> dict[str, Any] | str:
        # Optional-capability dispatch: an app advertises a GET route by
        # having its handler attribute at all.  The serving tier's
        # ServeApp has models/predict but no campaign view; the coord
        # watch front (repro.coord.watch.WatchApp) is the reverse.  A
        # missing handler is a plain 404, same as an unknown path.
        app = self.app
        if endpoint == _HEALTHZ:
            return app.health()
        if endpoint == _MODELS:
            describe = getattr(app, "describe_models", None)
            if describe is None:
                raise _NoRoute(endpoint)
            return describe()
        if endpoint == _CAMPAIGN:
            campaign_status = getattr(app, "campaign_status", None)
            if campaign_status is None:
                raise _NoRoute(endpoint)
            return campaign_status()
        if endpoint == _METRICS:
            params = parse_qs(query)
            if params.get("format", ["json"])[-1] == "prometheus":
                return app.metrics.render_prometheus()
            return app.metrics.snapshot()
        raise _NoRoute(endpoint)

    def _begin_predict(
        self, body: bytes | None, endpoint: str, started: float
    ) -> PendingPredict:
        submit = getattr(self.app, "submit_predict", None)
        if submit is None:  # status-only hosts (WatchApp) take no predicts
            raise _NoRoute(endpoint)
        request = PredictRequest.from_payload(self._parse_body(body))
        name, future = submit(request.inputs, model=request.model)
        return PendingPredict(
            router=self,
            endpoint=endpoint,
            started=started,
            model=name,
            return_logits=request.return_logits,
            future=future,
        )

    @staticmethod
    def _parse_body(body: bytes | None) -> dict[str, Any]:
        if not body:
            raise ConfigurationError("request body must be a JSON object")
        parsed = json.loads(body.decode("utf-8"))
        if not isinstance(parsed, dict):
            raise ConfigurationError("request body must be a JSON object")
        return parsed

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _complete(
        self,
        status: int,
        payload: dict[str, Any],
        content_type: str,
        headers: tuple[tuple[str, str], ...],
        endpoint: str,
        started: float,
    ) -> RouteResult:
        elapsed = time.monotonic() - started  # repro-lint: disable=RPL009 — closes the request-latency measurement opened in begin()
        self.app.observe_request(endpoint, status, elapsed)
        return RouteResult(
            status=status,
            body=dump_payload(payload),
            content_type=content_type,
            headers=headers,
        )

    def _complete_text(
        self,
        status: int,
        text: str,
        content_type: str,
        endpoint: str,
        started: float,
    ) -> RouteResult:
        elapsed = time.monotonic() - started  # repro-lint: disable=RPL009 — closes the request-latency measurement opened in begin()
        self.app.observe_request(endpoint, status, elapsed)
        return RouteResult(
            status=status, body=text.encode("utf-8"), content_type=content_type
        )

    def _error_result(
        self, error: BaseException, endpoint: str, started: float
    ) -> RouteResult:
        status, payload, headers = self._map_error(error, endpoint)
        return self._complete(
            status, payload, JSON_CONTENT, headers, endpoint, started
        )

    def _map_error(
        self, error: BaseException, endpoint: str
    ) -> tuple[int, dict[str, Any], tuple[tuple[str, str], ...]]:
        if isinstance(error, _NoRoute):
            return 404, {"error": f"no route {error.path}"}, ()
        if isinstance(error, ServerOverloadedError):
            # RFC-compliant Retry-After is integral seconds; the precise
            # hint rides in the body for clients that parse it.
            retry_after = max(1, math.ceil(error.retry_after_s))
            return (
                429,
                ErrorBody(str(error), error.retry_after_s).to_payload(),
                (("Retry-After", str(retry_after)),),
            )
        if isinstance(error, ConfigurationError):
            status = 404 if "unknown model" in str(error) else 400
            return status, {"error": str(error)}, ()
        if isinstance(error, ReproError):
            return 400, {"error": str(error)}, ()
        if isinstance(error, (ValueError, TypeError, KeyError)):
            return 400, {"error": f"bad request: {error}"}, ()
        _logger.exception("unhandled error serving %s", endpoint)
        return 500, {"error": f"internal error: {error}"}, ()
