"""FIG6 — average accuracy for every model × dataset × scheme (paper Fig. 6).

The paper's headline grid: ResNet50 / VGG16 / AlexNet on CIFAR-10 and
CIFAR-100, mean accuracy over fault-injection trials at five fault rates,
for FitAct / Clip-Act / Ranger / Unprotected.  Expected shape: every
protection beats unprotected; FitAct is best everywhere and its margin
over Clip-Act opens at the higher rates; Ranger trails both.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.fig5_accuracy_distribution import METHOD_LABELS
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.experiments.runner import METHODS, MethodSweep, run_method_sweep
from repro.eval.reporting import format_curves, percent

__all__ = ["Fig6Result", "run_fig6"]

#: The paper's panel grid, run dataset by dataset.
MODELS = ("resnet50", "vgg16", "alexnet")
DATASETS = ("synth10", "synth100")


@dataclass
class Fig6Result:
    """Mean-accuracy curves per (model, dataset) panel."""

    panels: dict[tuple[str, str], MethodSweep] = field(default_factory=dict)

    def panel(self, model_name: str, dataset_name: str) -> MethodSweep:
        return self.panels[(model_name, dataset_name)]

    def fitact_margin(self, model_name: str, dataset_name: str) -> list[float]:
        """FitAct minus Clip-Act mean accuracy per rate (the paper's gap)."""
        sweep = self.panel(model_name, dataset_name)
        fitact = sweep.mean_accuracy("fitact")
        clipact = sweep.mean_accuracy("clipact")
        return [f - c for f, c in zip(fitact, clipact)]

    def to_text(self) -> str:
        blocks = ["FIG6  Average accuracy under faults (all panels)"]
        for (model_name, dataset_name), sweep in self.panels.items():
            series = {
                METHOD_LABELS[m]: sweep.mean_accuracy(m) for m in METHODS
            }
            flips = "; ".join(
                f"{METHOD_LABELS[m]} "
                + ", ".join(f"{f:.1f}" for f in sweep.mean_flips(m))
                for m in METHODS
            )
            title = (
                f"\n{model_name} / {dataset_name} "
                f"(clean: "
                + ", ".join(
                    f"{METHOD_LABELS[m]} {percent(sweep.clean_accuracy[m])}"
                    for m in METHODS
                )
                + f"; mean flips per rate: {flips})"
            )
            blocks.append(
                format_curves(
                    [f"{r:.1e}" for r in sweep.rates],
                    series,
                    x_label="fault rate",
                    title=title,
                )
            )
        return "\n".join(blocks)


def run_fig6(
    preset: Preset = QUICK, contexts: Iterable[ExperimentContext] | None = None
) -> Fig6Result:
    """Regenerate Fig. 6 over the full model/dataset grid.

    ``contexts`` defaults to ``MODELS`` × ``DATASETS``, each prepared
    only when its panel runs.
    """
    if contexts is None:
        contexts = (
            prepare_context(model_name, dataset_name, preset)
            for dataset_name in DATASETS
            for model_name in MODELS
        )
    result = Fig6Result()
    for context in contexts:
        panel = (context.model_name, context.dataset_name)
        result.panels[panel] = run_method_sweep(context, tag="fig6")
    return result
