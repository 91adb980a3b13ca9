"""The /v1 protocol: typed round-trips and the legacy-alias guarantee.

Two contracts under test.  First, every protocol dataclass survives
``to_payload`` → ``from_payload`` unchanged, and ``dump_payload`` emits
deterministic, exact-float JSON.  Second — the PR's acceptance bar —
the deprecated unversioned paths return **byte-identical** payload
bodies to their ``/v1`` successors, distinguished only by the
``Deprecation``/``Link`` headers.
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
    DEPRECATION_HEADERS,
    LEGACY_ALIASES,
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
            workers={"mode": "thread", "count": 1},
            slo=None,
        )
        assert HealthReport.from_payload(report.to_payload()) == report

    def test_runtime_key_from_older_servers_is_ignored(self):
        """Older servers sent ``runtime``; every server now runs plans."""
        health = {"status": "ok", "runtime": True}
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
    """/predict etc. must be byte-identical shims over /v1."""

    def test_every_legacy_path_has_a_v1_successor(self):
        for legacy, canonical in LEGACY_ALIASES.items():
            assert canonical == f"/v1{legacy}"

    def test_get_aliases_return_identical_bytes(self, app):
        old = app.router.handle("GET", "/models", None)
        new = app.router.handle("GET", "/v1/models", None)
        assert old.status == new.status == 200
        assert old.body == new.body

    def test_volatile_get_aliases_return_identical_shapes(self, app):
        # /healthz (uptime ticks) and /metrics (the first call increments
        # the counters the second reports) can't be byte-compared across
        # sequential requests; assert the stable structure instead.
        for legacy in ("/healthz", "/metrics"):
            old = app.router.handle("GET", legacy, None)
            new = app.router.handle("GET", LEGACY_ALIASES[legacy], None)
            assert old.status == new.status == 200
            old_body = json.loads(old.body.decode("utf-8"))
            new_body = json.loads(new.body.decode("utf-8"))
            assert old_body.keys() == new_body.keys()
            if legacy == "/healthz":
                old_body.pop("uptime_seconds"), new_body.pop("uptime_seconds")
                assert old_body == new_body

    def test_predict_alias_returns_identical_bytes(self, app):
        inputs = np.zeros((2, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
        body = dump_payload(
            PredictRequest(
                inputs=inputs, model="m", return_logits=True
            ).to_payload()
        )
        old = app.router.handle("POST", "/predict", body)
        new = app.router.handle("POST", "/v1/predict", body)
        assert old.status == new.status == 200
        assert old.body == new.body

    def test_alias_carries_deprecation_headers_canonical_does_not(self, app):
        old = app.router.handle("GET", "/models", None)
        new = app.router.handle("GET", "/v1/models", None)
        assert old.headers == tuple(DEPRECATION_HEADERS("/v1/models"))
        assert ("Deprecation", "true") in old.headers
        assert any(
            name == "Link" and 'rel="successor-version"' in value
            for name, value in old.headers
        )
        assert new.headers == ()

    def test_alias_metrics_count_under_the_canonical_endpoint(self, app):
        app.router.handle("GET", "/models", None)
        by_endpoint = app.metrics.snapshot()["requests"]["by_endpoint"]
        assert "/v1/models" in by_endpoint
        assert "/models" not in by_endpoint

    def test_unknown_path_is_404(self, app):
        result = app.router.handle("GET", "/v2/predict", None)
        assert result.status == 404
        assert b"no route" in result.body
