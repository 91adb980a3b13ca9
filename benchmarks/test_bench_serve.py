"""Serving benchmark: chaos-mode resilience (SRV-C).

Under the same chaos configuration (same BER, same seed, same serving
name so both runs derive the same per-batch seed stream) and identical
traffic, a FitAct-protected checkpoint reports fewer SDC events in
``/metrics`` than the unprotected baseline.  The concrete flip sites
still differ — FitAct adds bound parameters, so the two fault spaces are
different sizes — which matches how the offline campaigns compare
protection schemes; the assertion is the statistical gap over 40
batches, not a site-for-site replay.
"""

from __future__ import annotations

import numpy as np

from repro.core import ProtectionConfig, protect_model, save_protected
from repro.core.training import Trainer, TrainingConfig
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.reporting import format_table
from repro.models.registry import build_model
from repro.serve import ChaosConfig, ModelRegistry, ServeApp, ServeConfig

NUM_CLASSES = 10
IMAGE_SIZE = 16
CHAOS_BATCHES = 40
CHAOS_BER = 3e-5


def _trained_model():
    model = build_model(
        "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
    )
    loader = DataLoader(
        SyntheticImageDataset(
            num_classes=NUM_CLASSES, num_samples=512, image_size=IMAGE_SIZE, seed=7
        ),
        batch_size=64,
        shuffle=True,
        rng=0,
        transform=Normalize(SYNTH_MEAN, SYNTH_STD),
    )
    Trainer(model, TrainingConfig(epochs=8, lr=0.1)).fit(loader)
    return model, loader


def _sample_inputs(count: int) -> np.ndarray:
    dataset = SyntheticImageDataset(
        num_classes=NUM_CLASSES,
        num_samples=count,
        image_size=IMAGE_SIZE,
        seed=3,
        split="test",
    )
    loader = DataLoader(
        dataset, batch_size=count, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
    )
    inputs, _ = next(iter(loader))
    return inputs.data.astype(np.float32)


def test_chaos_protected_beats_unprotected(save_output, tmp_path):
    """SRV-C: protected checkpoint shows fewer SDCs in /metrics."""
    model, train_loader = _trained_model()
    meta = {
        "model": "lenet",
        "dataset": "synth10",
        "method": "none",
        "num_classes": NUM_CLASSES,
        "scale": 1.0,
        "image_size": IMAGE_SIZE,
        "seed": 0,
        "format": "Q15.16",
    }
    paths = {}
    paths["unprotected"] = save_protected(tmp_path / "plain.npz", model, meta=meta)
    protect_model(model, train_loader, ProtectionConfig(method="fitact"))
    paths["protected"] = save_protected(
        tmp_path / "fitact.npz", model, meta={**meta, "method": "fitact"}
    )

    inputs = _sample_inputs(32)

    def serve_chaos(label: str) -> dict[str, object]:
        registry = ModelRegistry(capacity=1)
        # Same serving name for both runs, so the chaos engine derives
        # the same per-batch seed stream for each checkpoint.
        registry.register("model", paths[label])
        app = ServeApp(
            registry,
            ServeConfig(
                max_batch=32,
                max_latency_ms=0.0,
                chaos=ChaosConfig(ber=CHAOS_BER, seed=1),
            ),
        )
        try:
            for _ in range(CHAOS_BATCHES):
                app.predict(inputs, model="model")
        finally:
            app.close()
        return app.metrics.chaos_snapshot("model")

    snapshots = {name: serve_chaos(name) for name in ("unprotected", "protected")}
    unprotected = snapshots["unprotected"]
    protected = snapshots["protected"]

    rows = [
        [
            name,
            str(snap["batches"]),
            str(snap["flips"]),
            str(snap["sdc_events"]),
            f"{snap['sdc_rate']:.2%}",
        ]
        for name, snap in snapshots.items()
    ]
    text = "\n".join(
        [
            f"SRV-C  Chaos serving — BER {CHAOS_BER:g}, {CHAOS_BATCHES} batches "
            f"x {inputs.shape[0]} samples, same chaos seed stream and traffic "
            "(fault spaces differ: FitAct adds bound parameters)",
            format_table(
                ["checkpoint", "batches", "flips", "SDC events", "SDC rate"], rows
            ),
            "protected (FitAct) vs unprotected SDC events: "
            f"{protected['sdc_events']} vs {unprotected['sdc_events']}",
        ]
    )
    save_output("serve_chaos", text)
    assert protected["injected_batches"] > 0
    assert protected["sdc_events"] < unprotected["sdc_events"], (
        f"FitAct protection should reduce SDCs under identical chaos traffic "
        f"(protected {protected['sdc_events']}, unprotected "
        f"{unprotected['sdc_events']})"
    )
