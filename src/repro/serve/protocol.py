"""The versioned serving protocol: typed messages behind ``/v1``.

PR 2's endpoints grew ad-hoc JSON shapes assembled inline in the HTTP
handler; this module is the redesign — every request and response body
is a typed dataclass with an explicit payload mapping, serialised
through the store's exact-float JSON encoder so logits round-trip bit
for bit, and served under versioned paths:

- ``POST /v1/predict``  — :class:`PredictRequest` → :class:`PredictResponse`
- ``GET  /v1/models``   — :class:`ModelList` (of :class:`ModelInfo`)
- ``GET  /v1/healthz``  — :class:`HealthReport`
- ``GET  /v1/metrics``  — metrics snapshot (JSON or Prometheus text)

Only these ``/v1`` paths route; any other path, unversioned ones such
as ``/predict`` included, answers 404.

Error bodies are ``{"error": "<message>"}`` everywhere
(:class:`ErrorBody`); overload sheds add ``retry_after_s`` and the
``Retry-After`` header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.store.encoding import exact_json_dumps

__all__ = [
    "API_VERSION",
    "ErrorBody",
    "HealthReport",
    "ModelInfo",
    "ModelList",
    "PredictRequest",
    "PredictResponse",
    "dump_payload",
]

API_VERSION = "v1"


def dump_payload(payload: Mapping[str, Any]) -> bytes:
    """Serialise a protocol payload with exact-float round-tripping.

    Uses the store's encoder contract: shortest-round-trip floats,
    ``allow_nan=False`` (a NaN logit fails loudly at encode time instead
    of emitting invalid JSON), compact separators so identical payloads
    are identical bytes.
    """
    return exact_json_dumps(dict(payload)).encode("utf-8")


def _require(payload: Mapping[str, Any], key: str) -> Any:
    if key not in payload:
        raise ConfigurationError(f'request is missing "{key}"')
    return payload[key]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictRequest:
    """``POST /v1/predict`` body.

    ``inputs`` is one model-ready sample (``(C, H, W)``) or a batch of
    them; ``model`` may be omitted when the server hosts exactly one.
    """

    inputs: np.ndarray
    model: str | None = None
    return_logits: bool = False

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PredictRequest":
        if not isinstance(payload, Mapping):
            raise ConfigurationError("request body must be a JSON object")
        inputs = _require(payload, "inputs")
        try:
            array = np.asarray(inputs, dtype=np.float32)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f'"inputs" must be a numeric array: {error}'
            ) from error
        model = payload.get("model")
        return cls(
            inputs=array,
            model=None if model is None else str(model),
            return_logits=bool(payload.get("return_logits", False)),
        )

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"inputs": np.asarray(self.inputs).tolist()}
        if self.model is not None:
            payload["model"] = self.model
        if self.return_logits:
            payload["return_logits"] = True
        return payload


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictResponse:
    """``POST /v1/predict`` response: argmax predictions (+ logits)."""

    model: str
    predictions: tuple[int, ...]
    logits: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def from_result(
        cls, model: str, logits: np.ndarray, return_logits: bool
    ) -> "PredictResponse":
        array = np.asarray(logits)
        return cls(
            model=model,
            predictions=tuple(int(p) for p in array.argmax(axis=1)),
            logits=tuple(
                tuple(float(v) for v in row) for row in array
            )
            if return_logits
            else None,
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PredictResponse":
        logits = payload.get("logits")
        return cls(
            model=str(_require(payload, "model")),
            predictions=tuple(int(p) for p in _require(payload, "predictions")),
            logits=None
            if logits is None
            else tuple(tuple(float(v) for v in row) for row in logits),
        )

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "model": self.model,
            "predictions": list(self.predictions),
        }
        if self.logits is not None:
            payload["logits"] = [list(row) for row in self.logits]
        return payload


@dataclass(frozen=True)
class ModelInfo:
    """One hosted checkpoint as ``GET /v1/models`` reports it.

    ``format``/``clean_accuracy`` are ``None`` for models that are
    registered but not resident (the server answers from a manifest
    peek without loading them).  Every resident model serves through a
    compiled plan; the ``runtime`` key older servers sent is ignored.
    """

    name: str
    path: str
    model: str | None
    dataset: str | None
    method: str | None
    num_classes: int | None
    input_shape: tuple[int, int, int] | None
    clean_accuracy: float | None
    resident: bool
    format: str | None = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ModelInfo":
        shape = payload.get("input_shape")
        return cls(
            name=str(_require(payload, "name")),
            path=str(payload.get("path", "")),
            model=payload.get("model"),
            dataset=payload.get("dataset"),
            method=payload.get("method"),
            num_classes=payload.get("num_classes"),
            input_shape=tuple(int(d) for d in shape) if shape else None,
            clean_accuracy=payload.get("clean_accuracy"),
            resident=bool(payload.get("resident", False)),
            format=payload.get("format"),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "model": self.model,
            "dataset": self.dataset,
            "method": self.method,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "clean_accuracy": self.clean_accuracy,
            "resident": self.resident,
            "format": self.format,
        }


@dataclass(frozen=True)
class ModelList:
    """``GET /v1/models`` response."""

    models: tuple[ModelInfo, ...]
    capacity: int
    loads: int
    evictions: int
    chaos: bool

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ModelList":
        return cls(
            models=tuple(
                ModelInfo.from_payload(entry)
                for entry in _require(payload, "models")
            ),
            capacity=int(payload.get("capacity", 0)),
            loads=int(payload.get("loads", 0)),
            evictions=int(payload.get("evictions", 0)),
            chaos=bool(payload.get("chaos", False)),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "models": [info.to_payload() for info in self.models],
            "capacity": self.capacity,
            "loads": self.loads,
            "evictions": self.evictions,
            "chaos": self.chaos,
        }


@dataclass(frozen=True)
class HealthReport:
    """``GET /v1/healthz`` response.

    Extends the PR-2 liveness shape with the PR-9 production surface:
    admission-queue state and the latency-SLO report when the server
    runs with a p99 target.  The ``runtime`` and ``workers`` keys older
    servers sent are ignored.
    """

    status: str
    uptime_seconds: float
    models: tuple[str, ...]
    resident: tuple[str, ...]
    preloaded: tuple[str, ...]
    preload_rotated: tuple[str, ...]
    chaos_ber: float | None
    admission: dict[str, Any] | None = None
    slo: dict[str, Any] | None = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "HealthReport":
        return cls(
            status=str(_require(payload, "status")),
            uptime_seconds=float(payload.get("uptime_seconds", 0.0)),
            models=tuple(payload.get("models", ())),
            resident=tuple(payload.get("resident", ())),
            preloaded=tuple(payload.get("preloaded", ())),
            preload_rotated=tuple(payload.get("preload_rotated", ())),
            chaos_ber=payload.get("chaos_ber"),
            admission=payload.get("admission"),
            slo=payload.get("slo"),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "uptime_seconds": self.uptime_seconds,
            "models": list(self.models),
            "resident": list(self.resident),
            "preloaded": list(self.preloaded),
            "preload_rotated": list(self.preload_rotated),
            "chaos_ber": self.chaos_ber,
            "admission": self.admission,
            "slo": self.slo,
        }


@dataclass(frozen=True)
class ErrorBody:
    """Uniform error body; sheds add the retry hint."""

    error: str
    retry_after_s: float | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"error": self.error}
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload
