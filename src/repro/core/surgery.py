"""Model surgery: swapping activation functions in a trained model.

The paper's "DNN Architecture Modification" step (Fig. 4, §V): after
conventional training, every ReLU is replaced by a protected activation
whose bounds come from the activation profile.  Surgery is by module
path, reversible, and validated in tests to leave clean predictions
unchanged when the replacement is the identity-region of the original.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.bounded_relu import BoundedReLU, FitReLUNaive, GBReLU
from repro.core.bounded_tanh import BoundedTanh
from repro.core.fitrelu import DEFAULT_SLOPE, FitReLU
from repro.core.profiler import ActivationProfile
from repro.errors import ConfigurationError
from repro.nn.activations import ReLU
from repro.nn.module import Module

__all__ = [
    "bound_modules",
    "bound_parameter_count",
    "find_activation_sites",
    "make_factory",
    "replace_activations",
    "restore_relu",
]

ActivationFactory = Callable[[str, np.ndarray], Module]


def find_activation_sites(
    model: Module, target_type: type[Module] = ReLU
) -> list[str]:
    """Dotted paths of every ``target_type`` activation in the model."""
    return [
        path for path, module in model.named_modules() if type(module) is target_type
    ]


def replace_activations(
    model: Module,
    factory: ActivationFactory,
    profile: ActivationProfile,
    granularity: str = "neuron",
    bound_floor: float = 1e-3,
) -> list[str]:
    """Replace each profiled ReLU site with ``factory(path, bounds)``.

    The bounds array passed to the factory is derived from the profile at
    the requested granularity.  Returns the list of replaced paths.
    """
    replaced = []
    for path in profile.sites:
        bounds = profile.bounds(path, granularity=granularity, floor=bound_floor)
        replacement = factory(path, bounds)
        if not isinstance(replacement, Module):
            raise ConfigurationError(
                f"activation factory returned {type(replacement).__name__}, "
                "expected a Module"
            )
        model.set_submodule(path, replacement)
        replaced.append(path)
    return replaced


def restore_relu(model: Module) -> int:
    """Swap every protected activation back to a plain ReLU.

    Returns the number of restored sites.  Used by overhead benchmarks to
    time the same weights with and without protection.
    """
    protected = [
        path
        for path, module in model.named_modules()
        if isinstance(module, (BoundedReLU, FitReLU, BoundedTanh))
    ]
    for path in protected:
        model.set_submodule(path, ReLU())
    return len(protected)


def bound_modules(model: Module) -> dict[str, Module]:
    """All protected-activation modules by path (FitReLU and BoundedReLU)."""
    return {
        path: module
        for path, module in model.named_modules()
        if isinstance(module, (BoundedReLU, FitReLU, BoundedTanh))
    }


def bound_parameter_count(model: Module) -> int:
    """Total stored bound words — the FitAct memory overhead source."""
    return sum(
        int(module.bound.size)
        for module in model.modules()
        if isinstance(module, (BoundedReLU, FitReLU, BoundedTanh))
    )


def make_factory(
    method: str,
    k: float = DEFAULT_SLOPE,
    bound_scale: float = 1.0,
    trainable: bool = True,
    slope_mode: str = "relative",
) -> ActivationFactory:
    """Build an activation factory for a protection method.

    ``bound_scale`` multiplies the profiled bounds; :func:`protect_model`
    keeps them as profiled (1.0).
    """
    if bound_scale <= 0:
        raise ConfigurationError(f"bound_scale must be positive, got {bound_scale}")

    def scaled(bounds: np.ndarray) -> np.ndarray:
        return (bounds * bound_scale).astype(np.float32)

    if method == "fitact":
        return lambda path, bounds: FitReLU(
            scaled(bounds), k=k, slope_mode=slope_mode, trainable=trainable
        )
    if method == "fitact-naive":
        return lambda path, bounds: FitReLUNaive(scaled(bounds))
    if method == "clipact":
        return lambda path, bounds: GBReLU(float(scaled(bounds).max()), mode="zero")
    if method == "ranger":
        return lambda path, bounds: GBReLU(float(scaled(bounds).max()), mode="saturate")
    if method == "tanh":
        return lambda path, bounds: BoundedTanh(scaled(bounds))
    raise ConfigurationError(
        "method must be one of 'fitact', 'fitact-naive', 'clipact', 'ranger', "
        f"'tanh'; got {method!r}"
    )
