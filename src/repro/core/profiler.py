"""Activation-range profiling.

FitAct initialises every bound λᵢ "to their maximum values over the
training dataset" (paper §V); the baselines derive their layer-global λ
from the same maxima (paper §III-C).  The profiler temporarily swaps each
ReLU for a recording variant, streams the training data through the
model, and collects the elementwise maximum of every activation site.
Fig. 2 (the per-neuron max distribution motivating FitAct) reads straight
off the resulting profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd import ops_nn
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.data.loader import DataLoader
from repro.errors import ConfigurationError
from repro.nn.activations import ReLU
from repro.nn.module import Module

__all__ = ["ActivationProfile", "RecordingReLU", "profile_activations"]

_GRANULARITIES = ("neuron", "channel", "layer")


class RecordingReLU(Module):
    """Drop-in ReLU that tracks the elementwise max of its output.

    The running maximum has the unbatched activation shape; it starts at
    zero because ReLU output is non-negative.
    """

    def __init__(self) -> None:
        super().__init__()
        self.max_activation: np.ndarray | None = None
        self.batches_seen = 0

    def forward(self, x: Tensor) -> Tensor:
        out = ops_nn.relu(x)
        batch_max = out.data.max(axis=0)
        if self.max_activation is None:
            self.max_activation = batch_max.copy()
        else:
            np.maximum(self.max_activation, batch_max, out=self.max_activation)
        self.batches_seen += 1
        return out


@dataclass
class ActivationProfile:
    """Per-site elementwise activation maxima.

    ``site_max`` maps a dotted module path (the position of the original
    ReLU) to the unbatched max array observed there.
    """

    site_max: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def sites(self) -> list[str]:
        return list(self.site_max)

    @property
    def total_neurons(self) -> int:
        """Total neuron count N across profiled sites (paper Eq. 5)."""
        return sum(int(arr.size) for arr in self.site_max.values())

    def bounds(
        self, site: str, granularity: str = "neuron", floor: float = 1e-3
    ) -> np.ndarray:
        """Initial bound array for ``site`` at the requested granularity.

        ``floor`` keeps bounds of dead neurons strictly positive.
        """
        if granularity not in _GRANULARITIES:
            raise ConfigurationError(
                f"granularity must be one of {_GRANULARITIES}, got {granularity!r}"
            )
        maxima = self.site_max[site]
        if granularity == "neuron":
            bounds = maxima.copy()
        elif granularity == "channel":
            if maxima.ndim >= 3:
                reduced = maxima.max(axis=tuple(range(1, maxima.ndim)))
                bounds = reduced.reshape((-1,) + (1,) * (maxima.ndim - 1))
            else:
                bounds = maxima.copy()
        else:  # layer
            bounds = np.asarray([maxima.max()], dtype=maxima.dtype)
        return np.maximum(bounds, floor).astype(np.float32)

    def layer_bound(self, site: str) -> float:
        """The GBReLU layer-global bound: max over all the site's neurons."""
        return float(self.site_max[site].max())

    def neuron_distribution(self, site: str) -> np.ndarray:
        """Flat per-neuron maxima at a site — the data behind Fig. 2."""
        return self.site_max[site].reshape(-1).copy()

    def spread(self, site: str) -> dict[str, float]:
        """Summary of how wildly neuron maxima vary (Fig. 2's argument)."""
        values = self.neuron_distribution(site)
        return {
            "min": float(values.min()),
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "max": float(values.max()),
            "std": float(values.std()),
        }


def profile_activations(
    model: Module,
    loader: DataLoader,
    target_type: type[Module] = ReLU,
) -> ActivationProfile:
    """Collect per-neuron activation maxima at every ``target_type`` site.

    Swaps recorders in, streams ``loader`` (eval mode, gradients off),
    restores the original modules, and returns the profile.  The model is
    left exactly as found.
    """
    sites = [
        (path, module)
        for path, module in model.named_modules()
        if type(module) is target_type
    ]
    if not sites:
        raise ConfigurationError(
            f"model contains no {target_type.__name__} activation sites to profile"
        )
    recorders = {path: RecordingReLU() for path, _ in sites}
    originals = dict(sites)
    was_training = model.training
    for path, recorder in recorders.items():
        model.set_submodule(path, recorder)
    model.eval()
    try:
        with no_grad():
            for inputs, _ in loader:
                model(inputs)
    finally:
        for path, original in originals.items():
            model.set_submodule(path, original)
        model.train(was_training)
    profile = ActivationProfile()
    for path, recorder in recorders.items():
        if recorder.max_activation is None:
            raise ConfigurationError("profiling saw no data; loader was empty")
        profile.site_max[path] = recorder.max_activation
    return profile
