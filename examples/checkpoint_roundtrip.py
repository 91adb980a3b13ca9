#!/usr/bin/env python3
"""Deploying a protected model: checkpoint save/load and the CLI.

A FitAct-protected model is more than weights: the surgery manifest —
which activation class sits where, with which slope/bounds — must
travel with the state.  This example:

1. trains + protects a small model (full FitAct: profile, surgery,
   bound post-training);
2. saves it with ``save_protected`` and reloads it with
   ``load_protected``, verifying bit-identical outputs;
3. re-evaluates the reloaded model under faults;
4. prints the equivalent ``python -m repro`` commands.

Run:  python examples/checkpoint_roundtrip.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    FitActConfig,
    FitActPipeline,
    PostTrainingConfig,
    ProtectionConfig,
    Trainer,
    TrainingConfig,
    evaluate_accuracy,
    load_protected,
    save_protected,
)
from repro.data import DataLoader, Normalize, SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models import build_model
from repro.quant import quantize_module


def main() -> None:
    normalize = Normalize(SYNTH_MEAN, SYNTH_STD)
    train_set = SyntheticImageDataset(num_samples=800, image_size=16, seed=9)
    test_set = SyntheticImageDataset(
        num_samples=300, image_size=16, seed=9, split="test"
    )
    train_loader = DataLoader(
        train_set, batch_size=64, shuffle=True, rng=0, transform=normalize
    )
    test_loader = DataLoader(test_set, batch_size=128, transform=normalize)

    # ------------------------------------------------------------------
    # Train + protect (the full two-stage FitAct pipeline).
    # ------------------------------------------------------------------
    model = build_model("lenet", num_classes=10, image_size=16, seed=0)
    Trainer(model, TrainingConfig(epochs=15, lr=0.05, momentum=0.95)).fit(train_loader)

    pipeline = FitActPipeline(
        FitActConfig(
            protection=ProtectionConfig(method="fitact"),
            post_training=PostTrainingConfig(epochs=3, lr=0.01, zeta=0.05, delta=0.02),
        )
    )
    result = pipeline.protect(model, train_loader, test_loader)
    quantize_module(model)
    clean = evaluate_accuracy(model, test_loader)
    print(f"[fitact] protected model, clean accuracy {clean:.2%}")
    print("[fitact] " + result.summary().replace("\n", "\n[fitact] "))

    # ------------------------------------------------------------------
    # Save → load → verify.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lenet-fitact.npz"
        save_protected(
            path,
            model,
            meta={"method": "fitact", "clean_accuracy": clean, "dataset": "synth10"},
        )
        print(f"[save]   {path.name}: {path.stat().st_size:,} bytes")

        reloaded, meta = load_protected(
            path,
            lambda: build_model("lenet", num_classes=10, image_size=16, seed=0),
        )
        print(f"[load]   meta: {meta}")

        inputs, _ = next(iter(test_loader))
        if np.array_equal(model(inputs).data, reloaded(inputs).data):
            print("[verify] outputs bit-identical after the round trip")
        else:
            raise SystemExit("round trip mismatch — this is a bug")

        # --------------------------------------------------------------
        # The reloaded model is fully functional: fault campaign.
        # --------------------------------------------------------------
        campaign = FaultCampaign(
            FaultInjector(reloaded),
            lambda: evaluate_accuracy(reloaded, test_loader),
            trials=4,
            seed=0,
        )
        for n_flips in (8, 64):
            run = campaign.run(BitFlipFaultModel.exact(n_flips))
            print(
                f"[fault]  {n_flips} flips: mean {run.mean:.2%} "
                f"(min {run.min:.2%} over {run.trials} trials)"
            )

    print(
        "\nThe CLI wraps this same flow:\n"
        "  python -m repro protect --model lenet --method fitact "
        "--preset smoke --out ckpt.npz\n"
        "  python -m repro campaign run --checkpoint ckpt.npz --store runs/ckpt "
        "--rates 1e-6 1e-5 --preset smoke"
    )


if __name__ == "__main__":
    main()
