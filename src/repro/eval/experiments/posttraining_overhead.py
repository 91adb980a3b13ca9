"""§VI-C1 — post-training runtime relative to conventional training.

The paper: post-training ResNet50/VGG16/AlexNet takes ~21/4/1 minutes vs
340/60/17 minutes of conventional training — a 5.9–6.7% overhead.  Here
both stages run on the same substrate and data, so the *ratio* is the
reproduction target.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.reporting import format_table

__all__ = ["PostTrainingOverheadResult", "run_posttraining_overhead"]

#: The paper's three models, trained on the CIFAR-10 stand-in.
MODELS = ("resnet50", "vgg16", "alexnet")
DATASET_NAME = "synth10"


@dataclass
class PostTrainingOverheadResult:
    """Training vs post-training wall-clock per model."""

    rows: list[dict[str, object]] = field(default_factory=list)

    def max_ratio(self) -> float:
        return max(float(row["ratio"]) for row in self.rows)

    def to_text(self) -> str:
        table_rows = [
            [
                row["model"],
                f"{row['train_seconds']:.1f}",
                f"{row['post_seconds']:.1f}",
                f"{row['ratio']:.1%}",
                f"{row['train_epochs']}",
                f"{row['post_epochs']}",
                f"{row['per_epoch_ratio']:.1%}",
            ]
            for row in self.rows
        ]
        table = format_table(
            [
                "model",
                "train s",
                "post-train s",
                "post/train",
                "train epochs",
                "post epochs",
                "per-epoch ratio",
            ],
            table_rows,
            title="§VI-C1  Post-training runtime overhead (same data/substrate)",
        )
        return (
            table
            + f"\nmax post/train ratio {self.max_ratio():.1%} (paper: 5.9–6.7% — "
            "its full-schedule ratio reflects hundreds of training epochs "
            "vs a handful of post-training epochs; at matched epoch budgets "
            "compare the per-epoch ratio column)"
        )


def run_posttraining_overhead(
    preset: Preset = QUICK, contexts: Iterable[ExperimentContext] | None = None
) -> PostTrainingOverheadResult:
    """Regenerate the §VI-C1 comparison for each paper model.

    ``contexts`` defaults to ``MODELS`` on ``DATASET_NAME``, each
    prepared only when its row is measured.
    """
    if contexts is None:
        contexts = (
            prepare_context(model_name, DATASET_NAME, preset)
            for model_name in MODELS
        )
    result = PostTrainingOverheadResult()
    for context in contexts:
        _, info = context.protected_model("fitact")
        train_seconds = context.training_seconds
        post_seconds = float(info.get("post_seconds", 0.0))
        train_per_epoch = train_seconds / max(preset.train_epochs, 1)
        post_per_epoch = post_seconds / max(preset.post_epochs, 1)
        result.rows.append(
            {
                "model": context.model_name,
                "train_seconds": train_seconds,
                "post_seconds": post_seconds,
                "ratio": post_seconds / train_seconds if train_seconds else 0.0,
                "train_epochs": preset.train_epochs,
                "post_epochs": preset.post_epochs,
                "per_epoch_ratio": (
                    post_per_epoch / train_per_epoch if train_per_epoch else 0.0
                ),
            }
        )
    return result
