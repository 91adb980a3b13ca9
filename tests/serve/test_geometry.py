"""Serving geometry and startup warming.

Covers the two ROADMAP "Serve" items this PR closes: checkpoint-derived
input channel counts (grayscale models no longer masquerade as RGB) and
``ServeApp.preload`` compiling lanes/plans at startup instead of inside
the first unlucky request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.checkpoint import load_protected_auto, save_protected
from repro.eval.evaluator import forward_logits
from repro.models.lenet import build_lenet
from repro.serve import ModelRegistry, ServeApp, ServeConfig

IMAGE_SIZE = 16


def _grayscale_meta() -> dict:
    return {
        "model": "lenet",
        "dataset": "synth10",
        "method": "none",
        "num_classes": 10,
        "scale": 0.25,
        "image_size": IMAGE_SIZE,
        "in_channels": 1,
        "seed": 0,
        "format": "Q15.16",
    }


@pytest.fixture(scope="module")
def grayscale_checkpoint(tmp_path_factory):
    model = build_lenet(
        num_classes=10, scale=0.25, seed=0, in_channels=1, image_size=IMAGE_SIZE
    )
    path = save_protected(
        tmp_path_factory.mktemp("gray") / "gray.npz", model, meta=_grayscale_meta()
    )
    return path, model


class TestGrayscaleGeometry:
    def test_load_protected_auto_rebuilds_single_channel(self, grayscale_checkpoint):
        path, original = grayscale_checkpoint
        model, meta = load_protected_auto(path)
        assert meta["in_channels"] == 1
        x = np.random.default_rng(0).standard_normal(
            (2, 1, IMAGE_SIZE, IMAGE_SIZE)
        ).astype(np.float32)
        np.testing.assert_array_equal(
            forward_logits(model, x), forward_logits(original, x)
        )

    def test_registry_reports_true_channel_count(self, grayscale_checkpoint):
        path, _ = grayscale_checkpoint
        registry = ModelRegistry()
        registry.register("gray", path)
        # Manifest peek (not resident) already reports 1 channel.
        assert registry.describe_spec("gray")["input_shape"] == [
            1,
            IMAGE_SIZE,
            IMAGE_SIZE,
        ]
        entry = registry.get("gray")
        assert entry.input_shape == (1, IMAGE_SIZE, IMAGE_SIZE)

    def test_grayscale_checkpoint_serves_end_to_end(self, grayscale_checkpoint):
        path, _ = grayscale_checkpoint
        registry = ModelRegistry()
        registry.register("gray", path)
        app = ServeApp(registry, ServeConfig(max_batch=4, max_latency_ms=1.0))
        try:
            batch = np.random.default_rng(1).standard_normal(
                (3, 1, IMAGE_SIZE, IMAGE_SIZE)
            ).astype(np.float32)
            response = app.predict(batch, model="gray")
            assert len(response["predictions"]) == 3
            # An RGB-shaped request is rejected with the true geometry.
            with pytest.raises(Exception, match=r"\(1, 16, 16\)"):
                app.predict(
                    np.zeros((2, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32),
                    model="gray",
                )
        finally:
            app.close()

    def test_model_without_channel_hints_defaults_to_rgb(self, tmp_path):
        """Old checkpoints (no in_channels meta) derive from the model."""
        model = build_lenet(
            num_classes=10, scale=0.25, seed=0, image_size=IMAGE_SIZE
        )
        meta = _grayscale_meta()
        del meta["in_channels"]
        path = save_protected(tmp_path / "rgb.npz", model, meta=meta)
        registry = ModelRegistry()
        registry.register("rgb", path)
        assert registry.get("rgb").input_shape == (3, IMAGE_SIZE, IMAGE_SIZE)

    def test_conv_free_model_defaults_to_rgb(self):
        from repro.serve.registry import ServedModel
        from repro.quant.fixed_point import Q15_16

        mlp = nn.Sequential(nn.Flatten(), nn.Linear(12, 4, rng=0))
        entry = ServedModel(
            name="mlp",
            path="mlp.npz",
            model=mlp,
            meta={"image_size": 2},
            fmt=Q15_16,
        )
        assert entry.input_shape == (3, 2, 2)


class TestPreload:
    def test_preload_warms_models_and_lanes(self, grayscale_checkpoint):
        path, _ = grayscale_checkpoint
        registry = ModelRegistry()
        registry.register("gray", path)
        app = ServeApp(registry, ServeConfig(max_batch=4, max_latency_ms=1.0))
        try:
            warmed = app.preload()
            assert warmed == ["gray"]
            assert registry.resident_names() == ["gray"]
            assert registry.get("gray").plan is not None  # compiled at startup
            assert app.health()["preloaded"] == ["gray"]
            loads_before = registry.loads
            batch = np.zeros((1, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
            app.predict(batch, model="gray")
            assert registry.loads == loads_before  # first request: no load
        finally:
            app.close()

    def test_preload_rotates_fleets_beyond_capacity(
        self, grayscale_checkpoint, tmp_path
    ):
        """Every checkpoint is warmed once even when the fleet exceeds
        capacity; LRU keeps the tail resident and /healthz reports the
        rotated-out rest."""
        path, _ = grayscale_checkpoint
        other = save_protected(
            tmp_path / "other.npz",
            build_lenet(
                num_classes=10,
                scale=0.25,
                seed=0,
                in_channels=1,
                image_size=IMAGE_SIZE,
            ),
            meta=_grayscale_meta(),
        )
        registry = ModelRegistry(capacity=1)
        registry.register("a", path)
        registry.register("b", other)
        app = ServeApp(registry, ServeConfig(max_batch=4, max_latency_ms=1.0))
        try:
            warmed = app.preload()
            assert warmed == ["a", "b"]  # the whole fleet, in order
            assert registry.resident_names() == ["b"]  # LRU kept the tail
            health = app.health()
            assert health["preloaded"] == ["a", "b"]
            assert health["preload_rotated"] == ["a"]
            # The rotated model still serves (reloaded on first request),
            # and the resident one serves without a load.
            loads_before = registry.loads
            batch = np.zeros((1, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
            app.predict(batch, model="b")
            assert registry.loads == loads_before
            app.predict(batch, model="a")
            assert registry.loads == loads_before + 1
        finally:
            app.close()

    def test_preload_rotation_validates_broken_checkpoints_at_startup(
        self, grayscale_checkpoint, tmp_path
    ):
        """A checkpoint beyond capacity that cannot load fails preload
        (fail fast at startup) instead of failing its first request."""
        path, _ = grayscale_checkpoint
        broken = tmp_path / "broken.npz"
        broken.write_bytes(b"not a checkpoint")
        registry = ModelRegistry(capacity=1)
        registry.register("a", path)
        registry.register("z-broken", str(broken))
        app = ServeApp(registry, ServeConfig(max_batch=4, max_latency_ms=1.0))
        try:
            # np.load rejects the garbage archive; a ReproError would be
            # a (valid) friendlier wrapper — either way preload surfaces
            # the broken file instead of swallowing it.
            from repro.errors import ReproError

            with pytest.raises((ValueError, OSError, ReproError)):
                app.preload()
        finally:
            app.close()

    def test_health_reports_empty_preload_by_default(self, grayscale_checkpoint):
        path, _ = grayscale_checkpoint
        registry = ModelRegistry()
        registry.register("gray", path)
        app = ServeApp(registry)
        try:
            health = app.health()
            assert health["preloaded"] == []
            assert health["preload_rotated"] == []
        finally:
            app.close()
