"""FIG6 — average accuracy for every model × dataset × scheme (paper Fig. 6).

The paper's headline grid: ResNet50 / VGG16 / AlexNet on CIFAR-10 and
CIFAR-100, mean accuracy over fault-injection trials at five fault rates,
for FitAct / Clip-Act / Ranger / Unprotected.  Expected shape: every
protection beats unprotected; FitAct is best everywhere and its margin
over Clip-Act opens at the higher rates; Ranger trails both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.experiments.context import prepare_context
from repro.eval.experiments.fig5_accuracy_distribution import METHOD_LABELS
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.experiments.runner import MethodSweep, run_method_sweep
from repro.eval.reporting import format_curves, percent

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Mean-accuracy curves per (model, dataset) panel."""

    panels: dict[tuple[str, str], MethodSweep] = field(default_factory=dict)
    methods: tuple[str, ...] = ("fitact", "clipact", "ranger", "none")

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
                METHOD_LABELS[m]: sweep.mean_accuracy(m) for m in self.methods
            }
            flips = "; ".join(
                f"{METHOD_LABELS[m]} "
                + ", ".join(f"{f:.1f}" for f in sweep.mean_flips(m))
                for m in self.methods
            )
            title = (
                f"\n{model_name} / {dataset_name} "
                f"(clean: "
                + ", ".join(
                    f"{METHOD_LABELS[m]} {percent(sweep.clean_accuracy[m])}"
                    for m in self.methods
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
    preset: Preset = QUICK,
    models: tuple[str, ...] = ("resnet50", "vgg16", "alexnet"),
    datasets: tuple[str, ...] = ("synth10", "synth100"),
    methods: tuple[str, ...] = ("fitact", "clipact", "ranger", "none"),
) -> Fig6Result:
    """Regenerate Fig. 6 over the full model/dataset grid."""
    result = Fig6Result(methods=methods)
    for dataset_name in datasets:
        for model_name in models:
            context = prepare_context(model_name, dataset_name, preset)
            result.panels[(model_name, dataset_name)] = run_method_sweep(
                context, methods=methods, tag="fig6"
            )
    return result
