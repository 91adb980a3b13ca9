"""The asyncio HTTP front: the /v1 protocol with no parked threads.

:class:`AsyncReproServer` renders every response through
:class:`~repro.serve.routes.Router`, so these tests focus on what the
transport owns: HTTP/1.1 keep-alive, concurrent in-flight requests on
one event loop, graceful lifecycle, and a 400 for requests it cannot
parse.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket

import numpy as np
import pytest

from repro.core.checkpoint import save_protected
from repro.errors import ConfigurationError
from repro.eval.evaluator import forward_logits
from repro.models.lenet import build_lenet
from repro.serve import (
    AsyncReproServer,
    ModelRegistry,
    ServeApp,
    ServeClient,
    ServeConfig,
    run_load,
)

IMAGE_SIZE = 16


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    model = build_lenet(
        num_classes=10, scale=0.25, seed=0, image_size=IMAGE_SIZE
    )
    return save_protected(
        tmp_path_factory.mktemp("aio") / "m.npz",
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
def batch():
    return (
        np.random.default_rng(11)
        .standard_normal((4, 3, IMAGE_SIZE, IMAGE_SIZE))
        .astype(np.float32)
    )


def _app(checkpoint, **overrides):
    registry = ModelRegistry(capacity=2)
    registry.register("m", checkpoint)
    defaults = dict(max_batch=8, max_latency_ms=2.0)
    defaults.update(overrides)
    return ServeApp(registry, ServeConfig(**defaults))


@pytest.fixture()
def server(checkpoint):
    with AsyncReproServer(_app(checkpoint)) as running:
        yield running


class TestAsyncFront:
    def test_lifecycle(self, checkpoint):
        server = AsyncReproServer(_app(checkpoint))
        with pytest.raises(ConfigurationError, match="not running"):
            _ = server.url
        server.start()
        try:
            with pytest.raises(ConfigurationError, match="already running"):
                server.start()
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.stop()
        server.stop()  # idempotent

    def test_typed_client_speaks_to_async_front(self, server, batch):
        client = ServeClient(server.url, timeout=30.0)
        health = client.wait_ready()
        assert health.status == "ok"
        response = client.predict(batch, model="m", return_logits=True)
        entry = server.app.registry.get("m")
        local = forward_logits(entry.model, batch)
        assert list(response.predictions) == local.argmax(axis=1).tolist()
        np.testing.assert_array_equal(
            np.asarray(response.logits, dtype=np.float32), local
        )
        assert {m.name for m in client.models().models} == {"m"}

    def test_keep_alive_reuses_one_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30.0)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert response.headers["Connection"] == "keep-alive"
                payload = json.loads(response.read().decode("utf-8"))
                assert payload["status"] == "ok"
        finally:
            conn.close()

    def test_connection_close_honoured(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30.0)
        try:
            conn.request("GET", "/v1/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            response.read()
        finally:
            conn.close()

    def test_error_mapping_matches_router_contract(self, server, batch):
        client = ServeClient(server.url, timeout=30.0)
        client.wait_ready()
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client.predict(batch, model="nope")
        with pytest.raises(ConfigurationError, match="HTTP 400"):
            client.predict(np.zeros((2, 5), dtype=np.float32), model="m")
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client._request("/nothing-here")

    def test_concurrent_load_on_one_event_loop(self, server, batch):
        client = ServeClient(server.url, timeout=60.0)
        client.wait_ready()
        report = run_load(client, batch, requests=24, concurrency=8, model="m")
        assert report.errors == 0
        assert report.sheds == 0
        assert report.requests == 24
        # Every sample makes it through the micro-batcher, and the batch
        # is observed before its futures resolve.
        snapshot = server.app.metrics.snapshot()
        assert snapshot["batches"]["samples_served"] >= 24 * len(batch)


class TestMalformedRequests:
    """Input the transport cannot parse gets a 400, never a silent close."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GARBAGE\r\n\r\n",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nX-Long: "
            + b"a" * (1 << 16)
            + b"\r\n\r\n",
        ],
        ids=["request-line", "content-length", "header-over-limit"],
    )
    def test_answered_with_400(self, server, request_bytes, caplog):
        caplog.set_level(logging.ERROR)
        with socket.create_connection(
            (server.host, server.port), timeout=30.0
        ) as conn:
            conn.sendall(request_bytes)
            response = b""
            while chunk := conn.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in head
        assert "error" in json.loads(body.decode("utf-8"))
        # The loop is still serving, and nothing escaped to the log.
        assert ServeClient(server.url, timeout=30.0).healthz().status == "ok"
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestSloOverAsyncFront:
    def test_slo_report_surfaces_in_healthz(self, checkpoint, batch):
        app = _app(checkpoint, slo_p99_ms=10_000.0)
        with AsyncReproServer(app) as server:
            client = ServeClient(server.url, timeout=30.0)
            client.wait_ready()
            for _ in range(4):
                client.predict(batch, model="m")
            slo = client.healthz().slo
            assert slo is not None
            assert slo["target_p99_ms"] == 10_000.0
            assert slo["requests"] == 4
            assert slo["violations"] == 0
            assert slo["burn_rate"] == 0.0
            assert slo["healthy"] is True
            assert slo["p99_ms"] > 0.0

    def test_violations_burn_the_error_budget(self, checkpoint, batch):
        # An absurdly tight target: every request violates, burn rate
        # saturates at 100x the 1% budget.
        app = _app(checkpoint, slo_p99_ms=0.0001)
        with AsyncReproServer(app) as server:
            client = ServeClient(server.url, timeout=30.0)
            client.wait_ready()
            for _ in range(4):
                client.predict(batch, model="m")
            slo = client.healthz().slo
            assert slo["violations"] == 4
            assert slo["violation_rate"] == 1.0
            assert slo["burn_rate"] == 100.0
            assert slo["healthy"] is False
