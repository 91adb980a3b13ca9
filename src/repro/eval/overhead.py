"""Runtime and memory overhead measurement (paper Table I).

Compares inference latency and parameter memory of a protected model
against the identical weights with plain ReLU activations.  Absolute
numbers are host-specific (a numpy CPU substrate, not the paper's GPU);
the reproduction target is the *overhead ratio*: the paper reports
< 12% runtime and < 6% memory for FitAct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, eval_mode
from repro.quant.fixed_point import FixedPointFormat, Q15_16
from repro.quant.model import model_memory_bytes
from repro.utils.timing import time_callable

__all__ = ["OverheadReport", "measure_inference_seconds", "measure_overhead"]


@dataclass
class OverheadReport:
    """One Table I row."""

    label: str
    baseline_seconds: float
    protected_seconds: float
    baseline_memory_bytes: int
    protected_memory_bytes: int

    @property
    def runtime_overhead(self) -> float:
        """Fractional runtime increase (paper reports < 12% for FitAct)."""
        return self.protected_seconds / self.baseline_seconds - 1.0

    @property
    def memory_overhead(self) -> float:
        """Fractional memory increase (paper reports < 6% for FitAct)."""
        return self.protected_memory_bytes / self.baseline_memory_bytes - 1.0

    def row(self) -> list[str]:
        """Formatted cells matching the paper's Table I layout."""
        return [
            self.label,
            f"{self.baseline_seconds * 1e3:.3f}",
            f"{self.protected_seconds * 1e3:.3f}",
            f"{self.runtime_overhead:.2%}",
            f"{self.baseline_memory_bytes / 2**20:.2f}",
            f"{self.protected_memory_bytes / 2**20:.2f}",
            f"{self.memory_overhead:.2%}",
        ]


def measure_inference_seconds(
    model: Module, inputs: Tensor, repeats: int = 10, warmup: int = 2
) -> float:
    """Median-of-min inference wall time for one batch (eval, no grads)."""

    def run() -> None:
        with eval_mode(), no_grad():
            model(inputs)

    timing = time_callable(run, repeats=repeats, warmup=warmup)
    return timing["min"]


def measure_overhead(
    baseline: Module,
    protected: Module,
    inputs: Tensor | np.ndarray,
    label: str = "",
    repeats: int = 10,
    fmt: FixedPointFormat = Q15_16,
) -> OverheadReport:
    """Build a Table I row comparing ``protected`` against ``baseline``.

    Both models should hold the same trained weights; they are timed on
    the same input batch and measured for parameter memory under ``fmt``.
    """
    if not isinstance(inputs, Tensor):
        inputs = Tensor(np.asarray(inputs, dtype=np.float32))
    return OverheadReport(
        label=label,
        baseline_seconds=measure_inference_seconds(baseline, inputs, repeats=repeats),
        protected_seconds=measure_inference_seconds(protected, inputs, repeats=repeats),
        baseline_memory_bytes=model_memory_bytes(baseline, fmt),
        protected_memory_bytes=model_memory_bytes(protected, fmt),
    )
