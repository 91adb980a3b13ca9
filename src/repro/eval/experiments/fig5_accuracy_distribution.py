"""FIG5 — accuracy *distribution* per scheme and fault rate (paper Fig. 5).

The paper's box plots for VGG16/CIFAR-10: at each fault rate, the spread
of accuracy over independent fault-injection trials, for FitAct,
Clip-Act, Ranger and the unprotected model.  Expected shape: FitAct's
boxes stay near the clean accuracy through high rates; Clip-Act falls
beyond ~the mid rates; Ranger collapses almost immediately; Unprotected
is worst everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.experiments.runner import METHODS, MethodSweep, run_method_sweep
from repro.eval.reporting import format_table, percent

__all__ = ["Fig5Result", "run_fig5"]

MODEL_NAME = "vgg16"
DATASET_NAME = "synth10"

METHOD_LABELS = {
    "fitact": "FitAct",
    "clipact": "Clip-Act",
    "ranger": "Ranger",
    "none": "Unprotected",
}


@dataclass
class Fig5Result:
    """Box statistics per (method, rate)."""

    sweep: MethodSweep

    def box(self, method: str, rate: float) -> dict[str, float]:
        return self.sweep.sweeps[method][rate].box_stats()

    def to_text(self) -> str:
        blocks = [
            f"FIG5  Accuracy distribution under faults — "
            f"{self.sweep.model_name}/{self.sweep.dataset_name} "
            f"({self.sweep.sweeps[METHODS[0]][self.sweep.rates[0]].trials} "
            f"trials per cell)"
        ]
        for method in METHODS:
            rows = []
            flips = self.sweep.mean_flips(method)
            for rate, rate_flips in zip(self.sweep.rates, flips):
                stats = self.box(method, rate)
                rows.append(
                    [
                        f"{rate:.1e}",
                        f"{rate_flips:.1f}",
                        percent(stats["min"]),
                        percent(stats["q1"]),
                        percent(stats["median"]),
                        percent(stats["q3"]),
                        percent(stats["max"]),
                    ]
                )
            blocks.append(
                format_table(
                    ["fault rate", "mean flips", "min", "q1", "median", "q3", "max"],
                    rows,
                    title=(
                        f"\n{METHOD_LABELS[method]} "
                        f"(clean {percent(self.sweep.clean_accuracy[method])}):"
                    ),
                )
            )
        return "\n".join(blocks)


def run_fig5(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> Fig5Result:
    """Regenerate Fig. 5 (VGG16 on the CIFAR-10 stand-in by default)."""
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    return Fig5Result(sweep=run_method_sweep(context, tag="fig5"))
