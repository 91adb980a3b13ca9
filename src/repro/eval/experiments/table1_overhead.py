"""TAB1 — FitAct inference runtime & memory overhead (paper Table I).

For every model × dataset: time one inference batch with plain ReLU vs
FitAct activations (same trained weights) and compare parameter memory
under Q15.16.  The paper reports < 12% runtime and < 6% memory overhead;
absolute milliseconds/megabytes are host-specific, the ratios are the
reproduction target.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor
from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.overhead import OverheadReport, measure_overhead
from repro.eval.reporting import format_table

__all__ = ["Table1Result", "run_table1"]

#: The paper's model/dataset grid, run dataset by dataset.
MODELS = ("resnet50", "vgg16", "alexnet")
DATASETS = ("synth10", "synth100")

#: Images per timed inference batch, and timed batches per model.
BATCH_SIZE = 64
REPEATS = 10


@dataclass
class Table1Result:
    """One overhead row per (dataset, model)."""

    rows: list[OverheadReport] = field(default_factory=list)

    def max_runtime_overhead(self) -> float:
        return max(row.runtime_overhead for row in self.rows)

    def max_memory_overhead(self) -> float:
        return max(row.memory_overhead for row in self.rows)

    def to_text(self) -> str:
        table = format_table(
            [
                "model",
                "ReLU ms",
                "FitAct ms",
                "runtime O/H",
                "ReLU MB",
                "FitAct MB",
                "memory O/H",
            ],
            [row.row() for row in self.rows],
            title="TAB1  FitAct inference overheads (runtime per batch, Q15.16 memory)",
        )
        summary = (
            f"\nmax runtime overhead {self.max_runtime_overhead():.2%} "
            f"(paper: <12%), max memory overhead "
            f"{self.max_memory_overhead():.2%} (paper: <6%)"
        )
        return table + summary


def run_table1(
    preset: Preset = QUICK, contexts: Iterable[ExperimentContext] | None = None
) -> Table1Result:
    """Regenerate Table I over the model/dataset grid.

    ``contexts`` defaults to ``MODELS`` × ``DATASETS``, each prepared
    only when its row is measured.
    """
    if contexts is None:
        contexts = (
            prepare_context(model_name, dataset_name, preset)
            for dataset_name in DATASETS
            for model_name in MODELS
        )
    result = Table1Result()
    rng = np.random.default_rng(preset.seed)
    for context in contexts:
        baseline = context.fresh_model()
        protected, _ = context.protected_model("fitact")
        inputs = Tensor(
            rng.standard_normal(
                (BATCH_SIZE, 3, preset.image_size, preset.image_size)
            ).astype(np.float32)
        )
        report = measure_overhead(
            baseline,
            protected,
            inputs,
            label=f"{context.dataset_name}/{context.model_name}",
            repeats=REPEATS,
        )
        result.rows.append(report)
    return result
