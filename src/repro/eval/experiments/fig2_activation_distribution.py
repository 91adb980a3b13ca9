"""FIG2 — distribution of per-neuron maximum activations (paper Fig. 2).

The paper's argument for fine-grained bounds: in VGG16's second layer the
per-neuron maxima "vary wildly", so one global λ is either too loose for
most neurons or clips legitimate values.  This experiment profiles the
trained model and renders the histogram plus dispersion statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.reporting import format_table, text_histogram

__all__ = ["Fig2Result", "run_fig2"]

MODEL_NAME = "vgg16"
DATASET_NAME = "synth10"

#: Index of the histogrammed activation site: the second layer's.
SITE_INDEX = 1


@dataclass
class Fig2Result:
    """Per-neuron activation maxima for one site, plus all-site summary."""

    model_name: str
    dataset_name: str
    site: str
    maxima: np.ndarray = field(default_factory=lambda: np.empty(0))
    site_spreads: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def dispersion_ratio(self) -> float:
        """max/median of per-neuron maxima — the "varies wildly" measure."""
        median = float(np.median(self.maxima))
        if median <= 0:
            return float("inf")
        return float(self.maxima.max()) / median

    def to_text(self) -> str:
        histogram = text_histogram(
            self.maxima,
            bins=16,
            title=(
                f"FIG2  Per-neuron max activation — {self.model_name}/"
                f"{self.dataset_name}, site {self.site} "
                f"({self.maxima.size} neurons)"
            ),
        )
        rows = [
            [site, f"{s['min']:.3f}", f"{s['median']:.3f}", f"{s['mean']:.3f}",
             f"{s['max']:.3f}", f"{s['std']:.3f}"]
            for site, s in self.site_spreads.items()
        ]
        table = format_table(
            ["site", "min", "median", "mean", "max", "std"],
            rows,
            title="\nPer-site spread of neuron maxima (all activation sites):",
        )
        return f"{histogram}\n{table}"


def run_fig2(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> Fig2Result:
    """Regenerate Fig. 2 for the second layer's activation site."""
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    profile = context.activation_profile()
    site = profile.sites[SITE_INDEX]
    return Fig2Result(
        model_name=context.model_name,
        dataset_name=context.dataset_name,
        site=site,
        maxima=profile.neuron_distribution(site),
        site_spreads={s: profile.spread(s) for s in profile.sites},
    )
