"""FIG3 — shapes of the four activation functions (paper Fig. 3).

Evaluates ReLU, GBReLU, FitReLU-Naive and FitReLU on a 1-D grid and
reports characteristic values, verifying the qualitative shapes the paper
plots: ReLU unbounded; GBReLU/FitReLU-Naive pass-then-zero at λ; FitReLU
a smooth version of the same bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.core.bounded_relu import FitReLUNaive, GBReLU
from repro.core.fitrelu import FitReLU
from repro.eval.reporting import format_curves, format_table
from repro.nn.activations import ReLU

__all__ = ["Fig3Result", "run_fig3"]

#: The plotted bound λ and FitReLU slope k.
BOUND = 4.0
K = 40.0

#: The sampled input grid.
GRID_MIN = -5.0
GRID_MAX = 10.0
POINTS = 301


@dataclass
class Fig3Result:
    """Sampled activation curves plus shape diagnostics."""

    grid: np.ndarray
    curves: dict[str, np.ndarray] = field(default_factory=dict)
    bound: float = 0.0
    k: float = 0.0

    def peak(self, name: str) -> float:
        """Maximum output over the grid (the effective activation ceiling)."""
        return float(self.curves[name].max())

    def tail_value(self, name: str) -> float:
        """Output at the right edge of the grid (a 'faulty' large input)."""
        return float(self.curves[name][-1])

    def to_text(self) -> str:
        sample_indices = np.linspace(0, len(self.grid) - 1, 16).astype(int)
        table = format_curves(
            [f"{self.grid[i]:+.2f}" for i in sample_indices],
            {
                name: values[sample_indices].tolist()
                for name, values in self.curves.items()
            },
            x_label="x",
            value_format="{:+.3f}",
            title=(
                f"FIG3  Activation function shapes (λ = {self.bound:g}, "
                f"k = {self.k:g})"
            ),
        )
        diag_rows = [
            [name, f"{self.peak(name):+.3f}", f"{self.tail_value(name):+.3f}"]
            for name in self.curves
        ]
        diagnostics = format_table(
            ["function", "peak output", f"output at x={self.grid[-1]:g}"],
            diag_rows,
            title="\nShape diagnostics (bounded functions must squash the tail):",
        )
        return f"{table}\n{diagnostics}"


def run_fig3() -> Fig3Result:
    """Regenerate Fig. 3: sample all four activation functions."""
    grid = np.linspace(GRID_MIN, GRID_MAX, POINTS).astype(np.float32)
    x = Tensor(grid)
    functions = {
        "ReLU": ReLU(),
        "GBReLU": GBReLU(BOUND, mode="zero"),
        "FitReLU-Naive": FitReLUNaive(np.asarray([BOUND], dtype=np.float32)),
        "FitReLU": FitReLU(np.asarray([BOUND], dtype=np.float32), k=K),
    }
    result = Fig3Result(grid=grid, bound=BOUND, k=K)
    with no_grad():
        for name, module in functions.items():
            result.curves[name] = module(x).data.copy()
    return result
