"""Shared campaign runner: protection methods × fault rates.

Figs. 5/6 and several ablations all reduce to the same loop — protect the
trained model with each scheme, then sweep fault rates with a campaign —
so it lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.experiments.context import ExperimentContext
from repro.fault.campaign import FaultCampaign, SweepResult
from repro.fault.injector import FaultInjector
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = ["METHODS", "MethodSweep", "run_method_sweep"]

_logger = get_logger("eval.runner")

#: The paper's four schemes, in the order Figs. 5/6 plot them.
METHODS = ("fitact", "clipact", "ranger", "none")


@dataclass
class MethodSweep:
    """Campaign results for several protection methods on one context."""

    model_name: str
    dataset_name: str
    rates: tuple[float, ...]
    clean_accuracy: dict[str, float] = field(default_factory=dict)
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    reference_accuracy: float = 0.0

    def mean_accuracy(self, method: str) -> list[float]:
        """Mean accuracy per rate for one method (a Fig. 6 line)."""
        return self.sweeps[method].mean_curve()

    def mean_flips(self, method: str) -> list[float]:
        """Mean realised flips per rate for one method: each method
        faces its own fault space (FitAct adds its bound words)."""
        sweep = self.sweeps[method]
        return [float(sweep[rate].flip_counts.mean()) for rate in self.rates]


def run_method_sweep(context: ExperimentContext, tag: str = "") -> MethodSweep:
    """Protect with each of ``METHODS`` and run the fault-rate sweep.

    Every method runs the preset's fault rates and trials.  All methods
    share the campaign seed and fault rates, so they face fault streams
    of the same distribution, but not the same fault sites: each
    method's trials run under its own tag (``<tag>:<method>``) and over
    its own fault space (FitAct's bound words outnumber Clip-Act's), so
    trial t of two methods is not a paired comparison.
    """
    preset = context.preset
    rates = preset.rates
    result = MethodSweep(
        model_name=context.model_name,
        dataset_name=context.dataset_name,
        rates=tuple(rates),
        reference_accuracy=context.reference_accuracy,
    )
    for method in METHODS:
        model, info = context.protected_model(method)
        result.clean_accuracy[method] = info["clean_accuracy"]
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "campaign", tag, context.model_name,
                             context.dataset_name),
        )
        result.sweeps[method] = campaign.run_sweep(rates, tag=f"{tag}:{method}")
        _logger.info(
            "%s/%s %s: clean %.1f%%, means %s",
            context.model_name,
            context.dataset_name,
            method,
            100 * result.clean_accuracy[method],
            [f"{v:.2f}" for v in result.sweeps[method].mean_curve()],
        )
    return result
