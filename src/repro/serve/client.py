"""Client utilities: a typed ``/v1`` client and a threaded load generator.

``ServeClient`` speaks the versioned serving protocol
(:mod:`repro.serve.protocol`) over ``urllib.request`` (stdlib only, same
as the server): requests are encoded with the exact-float JSON encoder
and responses come back as the protocol's typed dataclasses
(:class:`~repro.serve.protocol.PredictResponse`,
:class:`~repro.serve.protocol.ModelList`,
:class:`~repro.serve.protocol.HealthReport`).  An overload shed (HTTP
429) surfaces as :class:`repro.errors.ServerOverloadedError` carrying
the server's ``Retry-After`` hint, so callers can implement real
backoff instead of pattern-matching error strings.

``run_load`` drives ``POST /v1/predict`` from many threads at once —
enough concurrency for the micro-batcher to actually form batches — and
reports achieved throughput with sheds counted separately from hard
errors; it backs ``examples/serve_client.py``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ServerOverloadedError
from repro.serve.protocol import (
    HealthReport,
    ModelList,
    PredictRequest,
    PredictResponse,
    dump_payload,
)

__all__ = ["LoadReport", "ServeClient", "run_load"]


class ServeClient:
    """Typed HTTP client for a running ``repro serve`` instance."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = dump_payload(payload)
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                body = json.loads(error.read().decode("utf-8"))
            except (ValueError, OSError):
                body = {}
            detail = body.get("error", "")
            if error.code == 429:
                retry_after = body.get(
                    "retry_after_s", error.headers.get("Retry-After", 1.0)
                )
                raise ServerOverloadedError(
                    detail or "server overloaded",
                    retry_after_s=float(retry_after),
                ) from error
            raise ConfigurationError(
                f"{path} failed with HTTP {error.code}: {detail or error.reason}"
            ) from error

    # ------------------------------------------------------------------
    def healthz(self) -> HealthReport:
        return HealthReport.from_payload(self._request("/v1/healthz"))

    def models(self) -> ModelList:
        return ModelList.from_payload(self._request("/v1/models"))

    def metrics(self) -> dict[str, Any]:
        """The metrics snapshot (its JSON shape is the typed contract)."""
        return self._request("/v1/metrics")

    def predict(
        self,
        inputs: np.ndarray,
        model: str | None = None,
        return_logits: bool = False,
    ) -> PredictResponse:
        request = PredictRequest(
            inputs=np.asarray(inputs), model=model, return_logits=return_logits
        )
        return PredictResponse.from_payload(
            self._request("/v1/predict", request.to_payload())
        )

    def wait_ready(self, attempts: int = 50, delay: float = 0.1) -> HealthReport:
        """Poll ``/v1/healthz`` until the server answers (startup races)."""
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except (urllib.error.URLError, OSError, ConfigurationError) as error:
                last_error = error
                time.sleep(delay)
        raise ConfigurationError(
            f"server at {self.base_url} never became ready: {last_error}"
        )


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run.

    ``sheds`` counts HTTP 429 rejections (admission control working as
    designed under overload); ``errors`` counts everything else that
    failed.  Shed requests are excluded from ``requests``/``samples``.
    """

    requests: int
    samples: int
    errors: int
    seconds: float
    sheds: int = 0

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def samples_per_second(self) -> float:
        return self.samples / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.requests} requests ({self.samples} samples) in "
            f"{self.seconds:.2f}s -> {self.samples_per_second:,.1f} "
            f"samples/s, {self.errors} errors, {self.sheds} shed"
        )


def run_load(
    client: ServeClient,
    inputs: np.ndarray,
    requests: int,
    concurrency: int = 8,
    model: str | None = None,
) -> LoadReport:
    """Fire ``requests`` predicts from ``concurrency`` threads.

    Every request carries the same ``inputs`` payload (shape
    ``(k, 3, H, W)`` or a single sample); the point is to measure the
    serving path, not to vary the data.
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
    payload = np.asarray(inputs)
    samples_per_request = payload.shape[0] if payload.ndim == 4 else 1
    remaining = threading.BoundedSemaphore(requests)
    counters = {"done": 0, "errors": 0, "sheds": 0}
    counters_lock = threading.Lock()

    def worker() -> None:
        while True:
            if not remaining.acquire(blocking=False):
                return
            done = errors = sheds = 0
            try:
                client.predict(payload, model=model)
                done = 1
            except ServerOverloadedError:
                sheds = 1
            except Exception:  # noqa: BLE001 — load gen records, not raises
                errors = 1
            with counters_lock:
                counters["done"] += done
                counters["errors"] += errors
                counters["sheds"] += sheds

    threads = [
        threading.Thread(target=worker, name=f"repro-load-{i}", daemon=True)
        for i in range(concurrency)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return LoadReport(
        requests=counters["done"],
        samples=counters["done"] * samples_per_request,
        errors=counters["errors"],
        seconds=elapsed,
        sheds=counters["sheds"],
    )
