"""Admission control: bounded queues, 429 sheds, Retry-After hints.

Unit tests drive :class:`AdmissionController` directly; the HTTP tests
hold the admission queue full with a slow micro-batch deadline and
assert the overflow request is shed as a real 429 carrying both the
``Retry-After`` header and the precise ``retry_after_s`` body hint.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.checkpoint import save_protected
from repro.errors import ConfigurationError, ServerOverloadedError
from repro.models.lenet import build_lenet
from repro.serve import (
    AdmissionController,
    AsyncReproServer,
    ModelRegistry,
    ServeApp,
    ServeClient,
    ServeConfig,
)

IMAGE_SIZE = 16


class TestAdmissionController:
    def test_admit_until_global_bound_then_shed(self):
        controller = AdmissionController(max_pending=2)
        tickets = [controller.admit("a"), controller.admit("b")]
        with pytest.raises(ServerOverloadedError, match="server is at capacity"):
            controller.admit("c")
        assert controller.pending == 2
        assert controller.shed == 1
        for ticket in tickets:
            ticket.release()
        assert controller.pending == 0
        controller.admit("c").release()  # slots free again

    def test_per_model_bound_sheds_only_the_hot_model(self):
        controller = AdmissionController(max_pending=8, model_pending=1)
        ticket = controller.admit("hot")
        with pytest.raises(ServerOverloadedError, match="'hot' is at capacity"):
            controller.admit("hot")
        other = controller.admit("cold")  # global headroom remains usable
        ticket.release()
        other.release()
        assert controller.shed == 1
        assert controller.admitted == 2

    def test_ticket_release_is_idempotent(self):
        controller = AdmissionController(max_pending=4)
        ticket = controller.admit("a")
        ticket.release()
        ticket.release()  # double release must not underflow
        assert controller.pending == 0
        with controller.admit("a"):
            assert controller.pending == 1
        assert controller.pending == 0  # context manager released

    def test_retry_hint_scales_with_saturation(self):
        shallow = AdmissionController(max_pending=1)
        shallow.admit("a")
        with pytest.raises(ServerOverloadedError) as excinfo:
            shallow.admit("a")
        assert excinfo.value.retry_after_s == pytest.approx(0.1)

        deep = AdmissionController(max_pending=640)
        tickets = [deep.admit("a") for _ in range(640)]
        with pytest.raises(ServerOverloadedError) as excinfo:
            deep.admit("a")
        assert excinfo.value.retry_after_s == pytest.approx(5.0)  # clamped
        for ticket in tickets:
            ticket.release()

    def test_report_shape(self):
        controller = AdmissionController(max_pending=4, model_pending=2)
        ticket = controller.admit("a")
        report = controller.report()
        assert report == {
            "pending": 1,
            "max_pending": 4,
            "model_pending": 2,
            "per_model": {"a": 1},
            "admitted": 1,
            "shed": 0,
        }
        ticket.release()
        assert controller.report()["per_model"] == {}

    def test_observers_fire(self):
        sheds, depths = [], []
        controller = AdmissionController(
            max_pending=1,
            on_shed=lambda model, reason: sheds.append((model, reason)),
            on_depth=lambda model, depth: depths.append((model, depth)),
        )
        ticket = controller.admit("a")
        with pytest.raises(ServerOverloadedError):
            controller.admit("b")
        ticket.release()
        assert sheds == [("b", "global")]
        assert depths == [("a", 1), ("a", 0)]

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError, match="max_pending"):
            AdmissionController(max_pending=0)
        with pytest.raises(ConfigurationError, match="model_pending"):
            AdmissionController(max_pending=4, model_pending=0)
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            AdmissionController(max_pending=4, model_pending=8)

    def test_refuses_to_pickle(self):
        with pytest.raises(TypeError, match="pickle"):
            pickle.dumps(AdmissionController())


def _checkpoint(tmp_path_factory, name):
    model = build_lenet(
        num_classes=10, scale=0.25, seed=0, image_size=IMAGE_SIZE
    )
    return save_protected(
        tmp_path_factory.mktemp("admission") / f"{name}.npz",
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


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return _checkpoint(tmp_path_factory, "m")


@pytest.fixture(scope="module")
def sample(checkpoint):
    return np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)


class TestShedOverHttp:
    def _server(self, checkpoint, **overrides):
        registry = ModelRegistry(capacity=2)
        registry.register("a", checkpoint)
        registry.register("b", checkpoint)
        defaults = dict(
            # A large batch with a slow flush deadline parks admitted
            # requests in the batcher long enough to observe the shed
            # deterministically.
            max_batch=64,
            max_latency_ms=500.0,
            max_pending=1,
        )
        defaults.update(overrides)
        app = ServeApp(registry, ServeConfig(**defaults))
        return AsyncReproServer(app)

    def test_queue_full_returns_429_with_retry_after(self, checkpoint, sample):
        with self._server(checkpoint) as server:
            client = ServeClient(server.url, timeout=30.0)
            client.wait_ready()
            # Occupy the single admission slot via the app (no HTTP
            # thread needed); it stays pending until the 500ms flush.
            _, future = server.app.submit_predict(sample, model="a")
            with pytest.raises(ServerOverloadedError) as excinfo:
                client.predict(sample, model="a")
            assert excinfo.value.retry_after_s >= 0.1
            future.result(timeout=10.0)  # the occupant still completes
            metrics = client.metrics()
            assert metrics["admission"]["shed"]["a"]["global"] == 1
            health = client.healthz()
            assert health.admission["shed"] == 1
            assert health.admission["max_pending"] == 1

    def test_retry_after_header_is_integral_seconds(self, checkpoint, sample):
        import urllib.error
        import urllib.request

        from repro.serve.protocol import PredictRequest, dump_payload

        with self._server(checkpoint) as server:
            client = ServeClient(server.url, timeout=30.0)
            client.wait_ready()
            _, future = server.app.submit_predict(sample, model="a")
            body = dump_payload(
                PredictRequest(inputs=sample, model="a").to_payload()
            )
            request = urllib.request.Request(
                f"{server.url}/v1/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            future.result(timeout=10.0)

    def test_per_model_cap_spares_other_models(self, checkpoint, sample):
        with self._server(
            checkpoint, max_pending=8, model_pending=1, max_latency_ms=300.0
        ) as server:
            client = ServeClient(server.url, timeout=30.0)
            client.wait_ready()
            _, future = server.app.submit_predict(sample, model="a")
            with pytest.raises(ServerOverloadedError, match="'a' is at capacity"):
                client.predict(sample, model="a")
            # The cold model is unaffected by the hot model's cap.
            response = client.predict(sample, model="b")
            assert len(response.predictions) == 1
            future.result(timeout=10.0)
            assert client.metrics()["admission"]["shed"]["a"]["model"] == 1
