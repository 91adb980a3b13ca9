"""FIG1 — accuracy vs the global bound value of GBReLU (paper Fig. 1).

The paper's motivating study: VGG16 on CIFAR-10 under a 1e-5 fault rate,
faults injected into the input layer and the second (convolutional)
layer, the second layer's ReLU replaced by GBReLU with a swept global
bound λ.  Expected shape: accuracy under fault *rises* as λ shrinks —
until λ cuts into the legitimate activation range and the fault-free
accuracy collapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bounded_relu import GBReLU
from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.reporting import format_curves, percent
from repro.fault.campaign import FaultCampaign
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.nn.conv import Conv2d
from repro.quant.model import quantize_module
from repro.utils.rng import derive_seed

__all__ = ["Fig1Result", "run_fig1"]

MODEL_NAME = "vgg16"
DATASET_NAME = "synth10"

#: Swept bounds as multiples of the profiled layer maximum.
FRACTIONS = (0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0)

#: Index of the swept activation site: the second layer's activation.
SITE_INDEX = 1


@dataclass
class Fig1Result:
    """Accuracy under fault (and fault-free) per swept bound value."""

    model_name: str
    dataset_name: str
    fault_rate: float
    baseline_accuracy: float
    site: str
    layer_max: float
    bounds: list[float] = field(default_factory=list)
    fault_accuracy: list[float] = field(default_factory=list)
    clean_accuracy: list[float] = field(default_factory=list)

    def best_bound(self) -> float:
        """Bound value maximising accuracy under fault."""
        return self.bounds[int(np.argmax(self.fault_accuracy))]

    def to_text(self) -> str:
        header = (
            f"FIG1  GBReLU global-bound sweep — {self.model_name}/"
            f"{self.dataset_name}, fault rate {self.fault_rate:g}\n"
            f"site {self.site}; observed layer max {self.layer_max:.3f}; "
            f"baseline (no fault, no bound) accuracy {percent(self.baseline_accuracy)}\n"
        )
        curves = format_curves(
            [f"{b:.3f}" for b in self.bounds],
            {
                "accuracy under fault": self.fault_accuracy,
                "accuracy w/o fault": self.clean_accuracy,
            },
            x_label="global bound λ",
        )
        return header + curves


def _first_conv_paths(context: ExperimentContext, count: int = 2) -> list[str]:
    """Paths of the model's first ``count`` convolution layers."""
    model = context.fresh_model()
    paths = [
        path for path, module in model.named_modules() if isinstance(module, Conv2d)
    ]
    return paths[:count]


def run_fig1(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> Fig1Result:
    """Regenerate Fig. 1: sweep the layer-2 GBReLU bound under faults.

    ``FRACTIONS`` are multiples of the profiled layer maximum; the paper
    sweeps absolute λ from ~0.25 to 4, which brackets its layer max the
    same way.
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)

    profile = context.activation_profile()
    site = profile.sites[SITE_INDEX]
    layer_max = profile.layer_bound(site)
    conv_paths = _first_conv_paths(context)
    prefixes = tuple(f"{p}." for p in conv_paths)

    # The paper's 1e-5 over full-width conv1+conv2 yields ~10 expected
    # flips; scale the rate so the restricted fault space of the
    # width-scaled model sees the same flip count.
    probe = context.fresh_model()
    restricted_words = sum(
        param.size
        for name, param in probe.named_parameters()
        if name.startswith(prefixes)
    )
    fault_rate = 10.0 / (restricted_words * 32)

    def param_filter(name: str) -> bool:
        return name.startswith(prefixes)

    result = Fig1Result(
        model_name=context.model_name,
        dataset_name=context.dataset_name,
        fault_rate=fault_rate,
        baseline_accuracy=context.reference_accuracy,
        site=site,
        layer_max=layer_max,
    )
    fault_model = BitFlipFaultModel.at_rate(fault_rate, param_filter=param_filter)
    for fraction in FRACTIONS:
        bound = float(layer_max * fraction)
        model = context.fresh_model()
        model.set_submodule(site, GBReLU(bound, mode="zero"))
        quantize_module(model)
        result.bounds.append(bound)
        result.clean_accuracy.append(context.evaluator.accuracy(model))
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "fig1", context.model_name),
        )
        result.fault_accuracy.append(campaign.run(fault_model, tag="fig1").mean)
    return result
