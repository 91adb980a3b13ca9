"""Experiment size presets.

The paper's experiments run full-width models on a TITAN V; the numpy
substrate runs the same topologies scaled down to fit a CPU budget.  A
preset fixes every size knob so benches are reproducible and the
three tiers trade fidelity for wall-clock:

- ``SMOKE`` — seconds; CI-sized sanity runs (LeNet-class models).
- ``QUICK`` — minutes; the default for ``pytest benchmarks/``: the real
  model zoo at reduced width/resolution.  This is the tier whose outputs
  ``benchmarks/outputs/<id>.txt`` records.
- ``FULL`` — hours; closest to paper shape (width ×0.25, 32×32, more
  data/trials).  Run explicitly via
  ``repro experiment --id <id> --preset full``.

Fault-rate mapping: at a fixed per-bit rate the expected flip count
scales with model size; our scaled models have ~10–100× fewer parameter
bits than the paper's, so the paper's rates yield sub-single flips at the
low end.  Each preset therefore multiplies the paper's rate grid by
``rate_scale``, keeping the grid's relative spacing (1, 10, 30, 100,
300); experiment outputs always report the actual rates and the mean
realised flip counts so runs at any scale can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.fault.fault_model import PAPER_FAULT_RATES

__all__ = ["FULL", "PRESETS", "Preset", "QUICK", "SMOKE", "get_preset"]


@dataclass(frozen=True)
class Preset:
    """All size knobs of an experiment run."""

    name: str
    model_scale: float
    image_size: int
    train_samples: int
    test_samples: int
    batch_size: int
    train_epochs: int
    post_epochs: int
    trials: int
    rate_scale: float
    seed: int = 0
    post_lr: float = 0.005
    zeta: float = 0.05
    delta: float = 0.01
    eval_batches: int | None = None
    scale_overrides: tuple[tuple[str, float], ...] = ()

    @property
    def rates(self) -> tuple[float, ...]:
        """The paper's five-rate grid scaled for this preset's model sizes."""
        return tuple(rate * self.rate_scale for rate in PAPER_FAULT_RATES)

    def scale_for(self, model_name: str) -> float:
        """Width scale for a model (per-model overrides keep the slow
        architectures — ResNet50's 53 convolutions — affordable)."""
        return dict(self.scale_overrides).get(model_name, self.model_scale)

    def with_overrides(self, **kwargs: object) -> "Preset":
        """Copy with fields replaced (e.g. ``preset.with_overrides(trials=3)``)."""
        return replace(self, **kwargs)


SMOKE = Preset(
    name="smoke",
    model_scale=0.5,
    image_size=16,
    train_samples=500,
    test_samples=200,
    batch_size=64,
    train_epochs=8,
    post_epochs=3,
    trials=3,
    rate_scale=100.0,
)

QUICK = Preset(
    name="quick",
    model_scale=0.125,
    image_size=32,
    train_samples=1280,
    test_samples=256,
    batch_size=64,
    train_epochs=14,
    post_epochs=4,
    trials=4,
    rate_scale=1.0,
    scale_overrides=(("resnet50", 0.0625), ("resnet18", 0.0625), ("alexnet", 0.25)),
)

FULL = Preset(
    name="full",
    model_scale=0.25,
    image_size=32,
    train_samples=4000,
    test_samples=1000,
    batch_size=64,
    train_epochs=20,
    post_epochs=8,
    trials=20,
    rate_scale=3.0,
)

PRESETS: dict[str, Preset] = {p.name: p for p in (SMOKE, QUICK, FULL)}


def get_preset(name: str) -> Preset:
    """Look up a preset by name."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
