"""Design-choice ablation benches (ABL-G/K/Z/B; ``repro list-experiments``)."""

from __future__ import annotations

from repro.eval.experiments import (
    QUICK,
    run_bit_position_ablation,
    run_granularity_ablation,
    run_slope_ablation,
    run_zeta_ablation,
)


def test_granularity(save_output):
    """ABL-G: finer bounds cost more words; neuron-wise leads at the top
    rate (the paper's core design argument)."""
    result = run_granularity_ablation(preset=QUICK, rate_index=4)
    save_output("ablation_granularity", result.to_text())
    data = result.data
    assert data["neuron"]["words"] > data["channel"]["words"] > data["layer"]["words"]
    assert data["neuron"]["faulty"] >= data["layer"]["faulty"] - 0.05


def test_slope(save_output):
    """ABL-K: small absolute k distorts clean accuracy; relative-k is
    robust across the sweep."""
    result = run_slope_ablation(preset=QUICK, slopes=(5.0, 40.0, 100.0))
    save_output("ablation_slope", result.to_text())
    # A too-shallow slope (k=5: the descent band spans ~80% of each
    # bound) distorts clean accuracy; the default k=40 must beat it.
    data = result.data
    assert data["relative:40"]["clean"] >= data["relative:5"]["clean"]
    # The default configuration stays usable.
    assert data["relative:40"]["clean"] > 0.5


def test_zeta(save_output):
    """ABL-Z: the Eq. 10 ζ trade — aggressive shrink buys no resilience on
    the scaled substrate (recorded as a reproduction finding)."""
    result = run_zeta_ablation(preset=QUICK, zetas=(0.0, 0.05, 1.0))
    save_output("ablation_zeta", result.to_text())
    # The δ constraint keeps every configuration's clean accuracy usable.
    for entry in result.data.values():
        assert entry["clean"] > 0.5


def test_bit_position(save_output):
    """ABL-B: fraction-bit flips are harmless; high integer bits are
    catastrophic unprotected and largely recovered by FitAct."""
    result = run_bit_position_ablation(preset=QUICK, bits=(0, 8, 16, 24, 30, 31))
    save_output("ablation_bits", result.to_text())
    none_low = result.data["0"]["none"]
    none_high = result.data["30"]["none"]
    fitact_high = result.data["30"]["fitact"]
    assert none_low > 0.4  # LSB flips harmless (≈ the clean accuracy)
    assert none_high < none_low - 0.2  # high bits catastrophic unprotected
    assert fitact_high > none_high + 0.1  # FitAct recovers most of it
