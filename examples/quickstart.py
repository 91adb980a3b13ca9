#!/usr/bin/env python3
"""Quickstart: train a small CNN, protect it with FitAct, measure resilience.

Walks the paper's whole workflow (Fig. 4) in about a minute on a laptop:

1. stage 1 — conventional accuracy training of a CNN on SynthCIFAR;
2. stage 2 — FitAct: profile activations, swap ReLU → FitReLU with
   per-neuron bounds, post-train the bounds;
3. evaluation — inject random Q15.16 bit-flips at increasing fault rates
   and compare accuracy against the unprotected model.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    FitActConfig,
    FitActPipeline,
    PostTrainingConfig,
    Trainer,
    TrainingConfig,
    evaluate_accuracy,
)
from repro.data import (
    DataLoader,
    Normalize,
    SYNTH_MEAN,
    SYNTH_STD,
    SyntheticImageDataset,
)
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models import build_model
from repro.quant import quantize_module


def main() -> None:
    # ------------------------------------------------------------------
    # Data: SynthCIFAR-10 (the offline CIFAR-10 stand-in).
    # ------------------------------------------------------------------
    normalize = Normalize(SYNTH_MEAN, SYNTH_STD)
    train_set = SyntheticImageDataset(num_samples=800, image_size=16, seed=11)
    test_set = SyntheticImageDataset(
        num_samples=300, image_size=16, seed=11, split="test"
    )
    train_loader = DataLoader(
        train_set, batch_size=64, shuffle=True, rng=0, transform=normalize
    )
    test_loader = DataLoader(test_set, batch_size=128, transform=normalize)

    # ------------------------------------------------------------------
    # Stage 1: conventional training for accuracy (ΘA).
    # ------------------------------------------------------------------
    model = build_model("lenet", num_classes=10, image_size=16, seed=0)
    report = Trainer(
        model, TrainingConfig(epochs=15, lr=0.05, momentum=0.95)
    ).fit(train_loader)
    print(f"[train]   {report.summary()}")
    reference = evaluate_accuracy(model, test_loader)
    print(f"[train]   clean test accuracy: {reference:.2%}")

    # Keep an unprotected copy for comparison.
    unprotected = build_model("lenet", num_classes=10, image_size=16, seed=0)
    unprotected.load_state_dict(model.state_dict())
    quantize_module(unprotected)

    # ------------------------------------------------------------------
    # Stage 2: FitAct — surgery + bound post-training (ΘR).
    # ------------------------------------------------------------------
    pipeline = FitActPipeline(
        FitActConfig(post_training=PostTrainingConfig(epochs=3))
    )
    result = pipeline.protect(model, train_loader, test_loader)
    print("[fitact]  " + result.summary().replace("\n", "\n[fitact]  "))

    # ------------------------------------------------------------------
    # Evaluation: bit-flip campaigns at increasing fault rates.
    # ------------------------------------------------------------------
    # Each model faces its own fault space (FitAct adds its bound words),
    # so each accuracy sits beside that model's own mean realised flips.
    print(
        f"\n{'fault rate':>12} {'unprotected (flips)':>20} {'FitAct (flips)':>16}"
    )
    for rate in (1e-6, 1e-5, 1e-4):
        cells = []
        for label, target in (("unprotected", unprotected), ("fitact", model)):
            campaign = FaultCampaign(
                FaultInjector(target),
                lambda t=target: evaluate_accuracy(t, test_loader),
                trials=5,
                seed=42,
            )
            outcome = campaign.run(BitFlipFaultModel.at_rate(rate), tag=label)
            cells.append(f"{outcome.mean:.2%} ({outcome.flip_counts.mean():.1f})")
        print(f"{rate:>12.0e} {cells[0]:>20} {cells[1]:>16}")

    print(
        "\nFitAct keeps accuracy where the unprotected model collapses — "
        "the paper's Fig. 5/6 effect at quickstart scale."
    )


if __name__ == "__main__":
    main()
