"""Unified protection API: one call to apply any scheme from the paper.

``protect_model`` profiles activations, performs surgery for the chosen
method, and returns a report; ``PROTECTION_METHODS`` enumerates the
schemes the paper evaluates, the Tanh-swap baseline from its related
work, and ``"none"`` for the unprotected baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fitrelu import DEFAULT_SLOPE
from repro.core.profiler import ActivationProfile, profile_activations
from repro.core.surgery import bound_parameter_count, make_factory, replace_activations
from repro.data.loader import DataLoader
from repro.errors import ConfigurationError
from repro.nn.module import Module

__all__ = ["PROTECTION_METHODS", "ProtectionConfig", "ProtectionReport", "protect_model"]

PROTECTION_METHODS = ("fitact", "fitact-naive", "clipact", "ranger", "tanh", "none")
"""Schemes of the paper's evaluation (§VI-B) plus the unprotected baseline
and the Tanh-swap baseline of Hong et al. [17] (related work §II-D)."""

_METHOD_DEFAULT_GRANULARITY = {
    "fitact": "neuron",
    "fitact-naive": "neuron",
    "clipact": "layer",
    "ranger": "layer",
    "tanh": "layer",
}


@dataclass(frozen=True)
class ProtectionConfig:
    """How to protect a model.

    Parameters
    ----------
    method:
        One of :data:`PROTECTION_METHODS`.
    granularity:
        Bound granularity ``"neuron" | "channel" | "layer"``; None picks
        the method's paper default (neuron for FitAct variants, layer for
        Clip-Act/Ranger).
    k:
        FitReLU descent slope (FitAct only).
    slope_mode:
        FitReLU slope scaling: ``"relative"`` (k/λ per neuron, default) or
        ``"absolute"`` (Eq. 6's fixed k).
    bound_floor:
        Minimum initial bound (keeps dead neurons alive).

    Profiling reads the whole loader, and the bounds start at the
    profiled maxima.
    """

    method: str = "fitact"
    granularity: str | None = None
    k: float = DEFAULT_SLOPE
    slope_mode: str = "relative"
    bound_floor: float = 1e-3

    def __post_init__(self) -> None:
        if self.method not in PROTECTION_METHODS:
            raise ConfigurationError(
                f"method must be one of {PROTECTION_METHODS}, got {self.method!r}"
            )
        if self.granularity is not None and self.granularity not in (
            "neuron",
            "channel",
            "layer",
        ):
            raise ConfigurationError(f"unknown granularity {self.granularity!r}")

    @property
    def effective_granularity(self) -> str:
        if self.method == "none":
            return "layer"
        return self.granularity or _METHOD_DEFAULT_GRANULARITY[self.method]


@dataclass
class ProtectionReport:
    """What surgery did to the model."""

    method: str
    granularity: str
    replaced_sites: list[str] = field(default_factory=list)
    bound_words: int = 0
    profile: ActivationProfile | None = None

    def summary(self) -> str:
        return (
            f"{self.method} ({self.granularity} bounds): protected "
            f"{len(self.replaced_sites)} activation sites with "
            f"{self.bound_words} bound words"
        )


def protect_model(
    model: Module,
    loader: DataLoader,
    config: ProtectionConfig | None = None,
    profile: ActivationProfile | None = None,
) -> ProtectionReport:
    """Profile (if needed) and apply the configured protection in place.

    ``method="none"`` returns an empty report without touching the model.
    Pass a pre-computed ``profile`` to amortise profiling across several
    protection configurations of the same trained weights.
    """
    config = config or ProtectionConfig()
    if config.method == "none":
        return ProtectionReport(method="none", granularity="-")
    if profile is None:
        profile = profile_activations(model, loader)
    factory = make_factory(config.method, k=config.k, slope_mode=config.slope_mode)
    replaced = replace_activations(
        model,
        factory,
        profile,
        granularity=config.effective_granularity,
        bound_floor=config.bound_floor,
    )
    return ProtectionReport(
        method=config.method,
        granularity=config.effective_granularity,
        replaced_sites=replaced,
        bound_words=bound_parameter_count(model),
        profile=profile,
    )
