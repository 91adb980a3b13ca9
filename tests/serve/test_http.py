"""End-to-end HTTP serving: real checkpoints, real sockets, chaos mode."""

from functools import partial

import numpy as np
import pytest

from repro.core import ProtectionConfig, protect_model, save_protected
from repro.errors import ConfigurationError
from repro.eval.evaluator import forward_logits
from repro.serve import (
    AsyncReproServer,
    ChaosConfig,
    ModelRegistry,
    ServeApp,
    ServeClient,
    ServeConfig,
)

NUM_CLASSES = 10
IMAGE_SIZE = 16


def _meta(method: str) -> dict:
    return {
        "model": "lenet",
        "dataset": "synth10",
        "method": method,
        "num_classes": NUM_CLASSES,
        "scale": 1.0,
        "image_size": IMAGE_SIZE,
        "seed": 0,
        "format": "Q15.16",
    }


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory, trained_state, train_loader):
    """One protected and one unprotected checkpoint on disk."""
    from repro.models.registry import build_model

    root = tmp_path_factory.mktemp("serve-ckpt")
    paths = {}
    for method in ("clipact", "none"):
        model = build_model(
            "lenet",
            num_classes=NUM_CLASSES,
            scale=1.0,
            image_size=IMAGE_SIZE,
            seed=0,
        )
        model.load_state_dict(trained_state["state"])
        if method != "none":
            protect_model(model, train_loader, ProtectionConfig(method=method))
        paths[method] = save_protected(
            root / f"{method}.npz", model, meta=_meta(method)
        )
    return paths


def _two_model_app(checkpoints):
    registry = ModelRegistry(capacity=2)
    registry.register("protected", checkpoints["clipact"])
    registry.register("plain", checkpoints["none"])
    return ServeApp(registry, ServeConfig(max_batch=8, max_latency_ms=2.0))


@pytest.fixture()
def server(checkpoints):
    with AsyncReproServer(_two_model_app(checkpoints)) as running:
        yield running


@pytest.fixture()
def client(server):
    client = ServeClient(server.url, timeout=30.0)
    client.wait_ready()
    return client


@pytest.fixture(scope="module")
def sample_batch(test_loader):
    inputs, _ = next(iter(test_loader))
    return inputs.data[:4].astype(np.float32)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health.status == "ok"
        assert health.models == ("plain", "protected")
        assert health.chaos_ber is None
        assert health.admission is not None
        assert health.admission["pending"] == 0
        assert health.slo is None  # no --slo-p99-ms configured

    def test_models_before_and_after_load(self, client, sample_batch):
        listing = client.models()
        assert {m.name for m in listing.models} == {"plain", "protected"}
        assert all(not m.resident for m in listing.models)
        # Geometry is reported even before a model is resident (manifest
        # peek), so clients can shape their first request correctly.
        assert all(
            m.input_shape == (3, IMAGE_SIZE, IMAGE_SIZE)
            for m in listing.models
        )
        client.predict(sample_batch, model="protected")
        listing = client.models()
        resident = {m.name: m for m in listing.models}
        assert resident["protected"].resident is True
        assert resident["protected"].input_shape == (3, IMAGE_SIZE, IMAGE_SIZE)
        assert resident["protected"].method == "clipact"

    def test_predict_matches_local_forward(self, client, server, sample_batch):
        response = client.predict(sample_batch, model="protected", return_logits=True)
        entry = server.app.registry.get("protected")
        local = forward_logits(entry.model, sample_batch)
        assert list(response.predictions) == local.argmax(axis=1).tolist()
        np.testing.assert_allclose(
            np.asarray(response.logits, dtype=np.float32), local, rtol=1e-5
        )

    def test_predict_single_sample_auto_batches(self, client, sample_batch):
        response = client.predict(sample_batch[0], model="plain")
        assert len(response.predictions) == 1

    def test_metrics_accumulate(self, client, sample_batch):
        client.predict(sample_batch, model="plain")
        client.predict(sample_batch, model="plain")
        metrics = client.metrics()
        predict = metrics["requests"]["by_endpoint"]["/v1/predict"]
        assert predict["count"] >= 2
        assert metrics["batches"]["samples_served"] >= 2 * len(sample_batch)
        assert metrics["latency_ms"]["count"] >= 2

    def test_metrics_prometheus_exposition(self, client, server, sample_batch):
        from urllib.request import urlopen

        client.predict(sample_batch, model="plain")
        with urlopen(f"{server.url}/v1/metrics?format=prometheus") as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{endpoint="/v1/predict",status="200"}' in text
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_count{endpoint="/v1/predict"}' in text
        # Peak RSS is read at scrape time: a live, positive byte count.
        assert "# TYPE repro_process_peak_rss_bytes gauge" in text
        (rss_line,) = [
            line
            for line in text.splitlines()
            if line.startswith("repro_process_peak_rss_bytes ")
        ]
        assert float(rss_line.split()[1]) > 1 << 20
        # Unknown/absent format values fall back to the JSON snapshot.
        with urlopen(f"{server.url}/v1/metrics?format=unknown") as response:
            assert response.headers["Content-Type"].startswith("application/json")

    def test_accepted_sockets_disable_nagle(self, checkpoints, monkeypatch):
        """Kept-alive responses must not wait on the delayed ACK."""
        import socket

        nodelay = []
        handle = AsyncReproServer._handle_connection

        async def recording_handle(server, reader, writer):
            accepted = writer.get_extra_info("socket")
            nodelay.append(
                accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            await handle(server, reader, writer)

        monkeypatch.setattr(
            AsyncReproServer, "_handle_connection", recording_handle
        )
        with AsyncReproServer(_two_model_app(checkpoints)) as running:
            ServeClient(running.url, timeout=30.0).wait_ready()
        assert nodelay and all(nodelay)

    def test_request_and_batch_spans_recorded(self, client, sample_batch):
        from repro.obs import configure_tracing, reset_tracing, trace_events

        configure_tracing(True)
        try:
            client.predict(sample_batch, model="plain")
            names = [record.name for record in trace_events()]
        finally:
            reset_tracing()
        assert "serve.request" in names
        assert "serve.batch" in names

    def test_errors_map_to_statuses(self, client, sample_batch):
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client.predict(sample_batch, model="nope")
        with pytest.raises(ConfigurationError, match="HTTP 400"):
            client.predict(np.zeros((2, 5), dtype=np.float32), model="plain")
        with pytest.raises(ConfigurationError, match="HTTP 400"):
            # Two models hosted: the request must name one.
            client.predict(sample_batch)
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client._request("/nothing-here")
        metrics = client.metrics()
        assert metrics["requests"]["errors"] >= 4


class TestChaosServing:
    @pytest.fixture()
    def chaos_server(self, checkpoints):
        registry = ModelRegistry(capacity=2)
        registry.register("protected", checkpoints["clipact"])
        app = ServeApp(
            registry,
            ServeConfig(
                max_batch=8,
                max_latency_ms=1.0,
                chaos=ChaosConfig(ber=5e-5, seed=7),
            ),
        )
        with AsyncReproServer(app) as running:
            yield running

    def test_chaos_counters_surface_in_metrics(self, chaos_server, sample_batch):
        client = ServeClient(chaos_server.url, timeout=30.0)
        client.wait_ready()
        for _ in range(4):
            client.predict(sample_batch, model="protected")
        chaos = client.metrics()["chaos"]["protected"]
        assert chaos["batches"] >= 4
        assert chaos["injected_batches"] >= 1
        assert chaos["flips"] > 0
        assert 0.0 <= chaos["sdc_rate"] <= 1.0

    def test_chaos_leaves_parameters_clean_between_requests(
        self, chaos_server, sample_batch
    ):
        client = ServeClient(chaos_server.url, timeout=30.0)
        client.wait_ready()
        client.predict(sample_batch, model="protected")
        entry = chaos_server.app.registry.get("protected")
        with entry.infer_lock:
            before = {k: v.copy() for k, v in entry.model.state_dict().items()}
        for _ in range(3):
            client.predict(sample_batch, model="protected")
        with entry.infer_lock:
            after = entry.model.state_dict()
            for key, value in before.items():
                np.testing.assert_array_equal(after[key], value)


class TestEvictionOverHTTP:
    def test_capacity_one_flips_between_models(self, checkpoints, sample_batch):
        registry = ModelRegistry(capacity=1)
        registry.register("protected", checkpoints["clipact"])
        registry.register("plain", checkpoints["none"])
        app = ServeApp(registry, ServeConfig(max_batch=8, max_latency_ms=1.0))
        with AsyncReproServer(app) as running:
            client = ServeClient(running.url, timeout=30.0)
            client.wait_ready()
            for _ in range(2):
                client.predict(sample_batch, model="protected")
                client.predict(sample_batch, model="plain")
            assert registry.evictions >= 3
            assert len(registry.resident_names()) == 1
            # Lanes reconcile with residency: evicted models must not
            # accumulate stale batchers (and their worker threads).
            assert list(app._lanes) == ["plain"]


class TestRuntimeServing:
    """Serving runs compiled plans: module-path predictions, chaos-compatible.

    The module-forward oracle is the same app with the resident entry's
    ``forward`` swapped for :func:`forward_logits`.
    """

    def _app(self, checkpoints, module_oracle=False, chaos=None):
        registry = ModelRegistry(capacity=2)
        registry.register("protected", checkpoints["clipact"])
        if module_oracle:
            entry = registry.get("protected")
            entry.forward = partial(forward_logits, entry.model)
        config = ServeConfig(max_batch=8, max_latency_ms=0.0, chaos=chaos)
        return ServeApp(registry, config)

    def test_registry_compiles_plan_once(self, checkpoints):
        registry = ModelRegistry(capacity=2)
        registry.register("protected", checkpoints["clipact"])
        entry = registry.get("protected")
        assert entry.plan is not None
        assert registry.get("protected").plan is entry.plan  # cached, not rebuilt

    def test_runtime_predictions_bit_match_module_path(
        self, checkpoints, sample_batch
    ):
        apps = [self._app(checkpoints, oracle) for oracle in (True, False)]
        try:
            logits = [
                np.asarray(
                    app.predict(sample_batch, model="protected", return_logits=True)[
                        "logits"
                    ]
                )
                for app in apps
            ]
            # The oracle app really served through the module forward.
            assert isinstance(apps[0].registry.get("protected").forward, partial)
        finally:
            for app in apps:
                app.close()
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_runtime_chaos_stream_matches_module_path(
        self, checkpoints, sample_batch
    ):
        snapshots = []
        for oracle in (True, False):
            app = self._app(
                checkpoints, oracle, chaos=ChaosConfig(ber=3e-4, seed=9)
            )
            try:
                for _ in range(4):
                    app.predict(sample_batch, model="protected")
                snapshots.append(app.metrics.snapshot()["chaos"]["protected"])
            finally:
                app.close()
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["injected_batches"] >= 1

    def test_health_and_models_drop_the_runtime_field(self, checkpoints):
        """Every model serves through a plan, so /v1 no longer reports it."""
        app = self._app(checkpoints)
        try:
            assert "runtime" not in app.health()
            entry = app.registry.get("protected")
            assert "runtime" not in entry.describe()
        finally:
            app.close()
