"""Benches regenerating Table I and the §VI-C1 training-overhead numbers."""

from __future__ import annotations

from repro.eval.experiments import QUICK, run_posttraining_overhead, run_table1


def test_table1_inference_overhead(save_output):
    """TAB1: FitAct inference overheads stay modest.

    The paper reports <12% runtime / <6% memory on GPU-scale models; the
    numpy substrate pays relatively more runtime for the sigmoid gate
    (its convolutions are comparatively cheaper than cuDNN's), so the
    bench asserts a loose ceiling and records the measured ratios.
    """
    result = run_table1(preset=QUICK)
    save_output("table1", result.to_text())
    assert len(result.rows) == 6
    for row in result.rows:
        # Width-scaling shrinks weights quadratically but λ words only
        # linearly, so the memory ratio is inflated at QUICK scale (the
        # paper's <6% is the scale-1.0 regime; see
        # benchmarks/outputs/table1.txt).
        assert row.memory_overhead < 3.0, row.label
        assert row.runtime_overhead < 2.0, row.label
        # Protection must actually add memory (the λ words exist).
        assert row.memory_overhead > 0.0, row.label


def test_posttraining_overhead(save_output):
    """§VI-C1: post-training is cheap relative to conventional training."""
    result = run_posttraining_overhead(preset=QUICK)
    save_output("posttraining", result.to_text())
    assert len(result.rows) == 3
    for row in result.rows:
        # Full-schedule ratio is epoch-budget dependent; per-epoch the
        # bound-learning pass must cost less than ~2 training epochs.
        assert float(row["per_epoch_ratio"]) < 2.0, row["model"]
