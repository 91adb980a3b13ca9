"""Multi-process plan lanes: correctness, chaos isolation, fault tolerance.

The pool ships ``(name, path, batch)`` to worker processes that load and
compile checkpoints themselves; the parent holds no model.  These tests
assert the workers' logits bit-match the in-process forward, chaos runs
with exact flip/restore inside the worker, and — the PR's bugfix — a
killed worker lane restarts in place without dropping the request that
was riding on it.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.checkpoint import load_protected_auto, save_protected
from repro.errors import ConfigurationError
from repro.eval.evaluator import forward_logits
from repro.serve import (
    ChaosConfig,
    ModelRegistry,
    ReproServer,
    ServeApp,
    ServeClient,
    ServeConfig,
    WorkerPool,
)

IMAGE_SIZE = 16


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    from repro.models.lenet import build_lenet

    model = build_lenet(
        num_classes=10, scale=0.25, seed=0, image_size=IMAGE_SIZE
    )
    return save_protected(
        tmp_path_factory.mktemp("workers") / "m.npz",
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
        np.random.default_rng(3)
        .standard_normal((4, 3, IMAGE_SIZE, IMAGE_SIZE))
        .astype(np.float32)
    )


class TestWorkerPool:
    @pytest.fixture()
    def pool(self):
        pool = WorkerPool(workers=2, mp_start="fork")
        yield pool
        pool.close(drain=True, timeout=10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ConfigurationError, match="mp_start"):
            WorkerPool(workers=1, mp_start="thread")

    def test_worker_logits_bit_match_local_forward(
        self, pool, checkpoint, batch
    ):
        model, _ = load_protected_auto(checkpoint)
        local = forward_logits(model, batch)
        outputs, report = pool.run_batch("m", str(checkpoint), batch, chaos=False)
        np.testing.assert_array_equal(outputs, local)
        assert report is None  # clean forward: no chaos report

    def test_warm_then_report(self, pool, checkpoint):
        pool.warm("m", str(checkpoint))
        report = pool.report()
        assert report["mode"] == "process"
        assert report["count"] == 2
        assert report["alive"] == 2
        assert report["restarts"] == 0

    def test_dead_lane_restarts_without_dropping_the_batch(
        self, pool, checkpoint, batch
    ):
        pool.warm("m", str(checkpoint))
        restarts_seen = []
        pool._on_restart = lambda: restarts_seen.append(1)
        for lane in pool._lanes:
            os.kill(lane.process.pid, signal.SIGKILL)
        # Both lanes are corpses; the next batches must still be served
        # (restart-in-place + one resubmission each).  Restarts are lazy
        # — a dead lane revives when a batch rides it — so two batches
        # bring the whole fleet back.
        for _ in range(2):
            outputs, _ = pool.run_batch(
                "m", str(checkpoint), batch, chaos=False
            )
            assert outputs.shape == (len(batch), 10)
        assert pool.restarts == 2
        assert len(restarts_seen) == 2
        assert pool.report()["alive"] == 2

    def test_unknown_checkpoint_error_propagates_typed(self, pool, batch):
        with pytest.raises(Exception, match="nope.npz"):
            pool.run_batch("nope", "nope.npz", batch, chaos=False)
        # The lane survives the error and keeps serving.
        assert pool.report()["alive"] == 2

    def test_closed_pool_rejects_work(self, checkpoint, batch):
        pool = WorkerPool(workers=1, mp_start="fork")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            pool.run_batch("m", str(checkpoint), batch)

    def test_refuses_to_pickle(self):
        pool = WorkerPool(workers=1, mp_start="fork")
        try:
            with pytest.raises(TypeError, match="cannot be pickled"):
                pickle.dumps(pool)
            with pytest.raises(TypeError, match="cannot be pickled"):
                pickle.dumps(pool._lanes[0])
        finally:
            pool.close()


class TestWorkerChaos:
    def test_chaos_runs_inside_workers_with_reports(self, checkpoint, batch):
        pool = WorkerPool(
            workers=2, mp_start="fork", chaos=ChaosConfig(ber=3e-4, seed=9)
        )
        try:
            reports = []
            for _ in range(4):
                outputs, report = pool.run_batch(
                    "m", str(checkpoint), batch, chaos=True
                )
                assert outputs.shape == (len(batch), 10)
                assert report is not None
                reports.append(report)
            assert sum(r.flips for r in reports) > 0
        finally:
            pool.close()

    def test_lanes_get_distinct_chaos_seeds(self):
        pool = WorkerPool(
            workers=2, mp_start="fork", chaos=ChaosConfig(ber=1e-4, seed=5)
        )
        try:
            seeds = {pool._lane_chaos(i).seed for i in range(2)}
            assert len(seeds) == 2
            assert 5 not in seeds  # derived, not the raw campaign seed
        finally:
            pool.close()


class TestProcessModeServing:
    @pytest.mark.parametrize("mp_start", ["fork", "spawn"])
    def test_end_to_end_over_http(self, checkpoint, batch, mp_start):
        registry = ModelRegistry(capacity=2)
        registry.register("m", checkpoint)
        app = ServeApp(
            registry,
            ServeConfig(
                max_batch=8, max_latency_ms=2.0, workers=2, mp_start=mp_start
            ),
        )
        app.preload()
        with ReproServer(app) as server:
            client = ServeClient(server.url, timeout=60.0)
            health = client.wait_ready()
            assert health.workers["mode"] == "process"
            assert health.workers["count"] == 2
            assert health.workers["alive"] == 2
            assert health.workers["mp_start"] == mp_start
            response = client.predict(batch, model="m", return_logits=True)
            model, _ = load_protected_auto(checkpoint)
            local = forward_logits(model, batch)
            assert list(response.predictions) == local.argmax(axis=1).tolist()
            np.testing.assert_array_equal(
                np.asarray(response.logits, dtype=np.float32), local
            )

    def test_worker_death_served_through_and_counted(self, checkpoint, batch):
        registry = ModelRegistry(capacity=2)
        registry.register("m", checkpoint)
        app = ServeApp(
            registry,
            ServeConfig(max_batch=8, max_latency_ms=2.0, workers=1, mp_start="fork"),
        )
        app.preload()
        with ReproServer(app) as server:
            client = ServeClient(server.url, timeout=60.0)
            client.wait_ready()
            client.predict(batch, model="m")
            pool = app._pool
            assert pool is not None
            os.kill(pool._lanes[0].process.pid, signal.SIGKILL)
            # The very next request rides the dead lane, triggers the
            # restart-and-resubmit path, and still succeeds.
            response = client.predict(batch, model="m")
            assert len(response.predictions) == len(batch)
            metrics = client.metrics()
            assert metrics["admission"]["worker_restarts"] >= 1
            assert client.healthz().workers["restarts"] >= 1

    def test_parent_process_loads_no_models(self, checkpoint, batch):
        registry = ModelRegistry(capacity=2)
        registry.register("m", checkpoint)
        app = ServeApp(
            registry,
            ServeConfig(max_batch=8, max_latency_ms=2.0, workers=1, mp_start="fork"),
        )
        try:
            payload = app.predict(batch, model="m")
            assert len(payload["predictions"]) == len(batch)
            assert registry.loads == 0  # inference happened off-process
            assert registry.resident_names() == []
        finally:
            app.close()
