"""The /v1 protocol: typed round-trips and versioned-only routing.

Two contracts under test.  First, every protocol dataclass survives
``to_payload`` → ``from_payload`` unchanged, and ``dump_payload`` emits
deterministic, exact-float JSON.  Second, only ``/v1`` paths route:
the retired unversioned paths answer 404 like any unknown path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import save_protected
from repro.errors import ConfigurationError
from repro.models.lenet import build_lenet
from repro.serve import ModelRegistry, ServeApp, ServeConfig
from repro.serve.protocol import (
    ErrorBody,
    HealthReport,
    ModelInfo,
    ModelList,
    PredictRequest,
    PredictResponse,
    dump_payload,
)

IMAGE_SIZE = 16


class TestPredictRequest:
    def test_round_trip(self):
        inputs = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
        request = PredictRequest(inputs=inputs, model="m", return_logits=True)
        rebuilt = PredictRequest.from_payload(request.to_payload())
        np.testing.assert_array_equal(rebuilt.inputs, inputs)
        assert rebuilt.model == "m"
        assert rebuilt.return_logits is True

    def test_defaults_stay_out_of_the_wire_format(self):
        request = PredictRequest(inputs=np.zeros((1, 1, 2, 2), dtype=np.float32))
        payload = request.to_payload()
        assert set(payload) == {"inputs"}  # model/return_logits elided

    def test_missing_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match='missing "inputs"'):
            PredictRequest.from_payload({"model": "m"})

    def test_non_numeric_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric array"):
            PredictRequest.from_payload({"inputs": [["a", "b"]]})

    def test_non_object_body_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            PredictRequest.from_payload([1, 2, 3])


class TestPredictResponse:
    def test_from_result_argmaxes(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]], dtype=np.float32)
        response = PredictResponse.from_result("m", logits, return_logits=True)
        assert response.predictions == (1, 0)
        assert response.logits is not None
        rebuilt = PredictResponse.from_payload(response.to_payload())
        assert rebuilt == response

    def test_logits_elided_unless_requested(self):
        logits = np.zeros((1, 3), dtype=np.float32)
        response = PredictResponse.from_result("m", logits, return_logits=False)
        assert response.logits is None
        assert "logits" not in response.to_payload()


class TestModelAndHealthMessages:
    def test_model_list_round_trip(self):
        info = ModelInfo(
            name="a",
            path="a.npz",
            model="lenet",
            dataset="synth10",
            method="clipact",
            num_classes=10,
            input_shape=(3, 16, 16),
            clean_accuracy=0.93,
            resident=True,
            format="Q15.16",
        )
        listing = ModelList(
            models=(info,), capacity=2, loads=1, evictions=0, chaos=False
        )
        assert ModelList.from_payload(listing.to_payload()) == listing

    def test_health_report_round_trip(self):
        report = HealthReport(
            status="ok",
            uptime_seconds=1.25,
            models=("a", "b"),
            resident=("a",),
            preloaded=(),
            preload_rotated=(),
            chaos_ber=1e-5,
            admission={"pending": 0},
            slo=None,
        )
        assert HealthReport.from_payload(report.to_payload()) == report

    def test_runtime_key_from_older_servers_is_ignored(self):
        """Older servers sent ``runtime`` (every server now runs plans)
        and ``workers`` (every lane now runs one batch thread)."""
        health = {"status": "ok", "runtime": True, "workers": {"count": 2}}
        assert HealthReport.from_payload(health).status == "ok"
        info = {"name": "a", "runtime": False}
        assert ModelInfo.from_payload(info).name == "a"

    def test_error_body_carries_retry_hint_only_when_set(self):
        assert ErrorBody("boom").to_payload() == {"error": "boom"}
        shed = ErrorBody("full", retry_after_s=0.25).to_payload()
        assert shed == {"error": "full", "retry_after_s": 0.25}


class TestEncoding:
    def test_dump_payload_is_deterministic_and_compact(self):
        payload = {"b": [1.5, 2.0], "a": "x"}
        first, second = dump_payload(payload), dump_payload(dict(payload))
        assert first == second
        assert b" " not in first  # compact separators

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1e-30, 1.0000000000000002, -3.141592653589793]
        decoded = json.loads(dump_payload({"v": values}).decode("utf-8"))
        assert decoded["v"] == values  # bit-for-bit, not approximately

    def test_nan_fails_loudly(self):
        with pytest.raises(ValueError):
            dump_payload({"v": float("nan")})


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    model = build_lenet(
        num_classes=10, scale=0.25, seed=0, image_size=IMAGE_SIZE
    )
    path = save_protected(
        tmp_path_factory.mktemp("proto") / "m.npz",
        model,
        meta={
            "model": "lenet",
            "dataset": "synth10",
            "method": "none",
            "num_classes": 10,
            "scale": 0.25,
            "image_size": IMAGE_SIZE,
            "seed": 0,
            "format": "Q15.16",
        },
    )
    registry = ModelRegistry(capacity=2)
    registry.register("m", path)
    app = ServeApp(registry, ServeConfig(max_batch=4, max_latency_ms=0.0))
    yield app
    app.close()


class TestLegacyAliases:
    """The unversioned PR-2 paths are gone: they route like any unknown path."""

    @pytest.mark.parametrize(
        "path", ["/predict", "/models", "/healthz", "/metrics", "/v2/predict"]
    )
    def test_unknown_path_is_404(self, app, path):
        if path.endswith("/predict"):
            inputs = np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
            body = dump_payload(PredictRequest(inputs, model="m").to_payload())
            result = app.router.handle("POST", path, body)
        else:
            result = app.router.handle("GET", path, None)
        assert result.status == 404
        assert result.body == dump_payload({"error": f"no route {path}"})
        assert result.headers == ()
