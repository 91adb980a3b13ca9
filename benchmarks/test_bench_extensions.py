"""Beyond-paper extension benches (DESIGN.md §5: EXT-A/E/F, ABL-W).

Each bench varies one axis the paper holds fixed — fault location
(activations), memory protection (SEC-DED ECC), fault spatial structure
(bursts, stuck-at), and word format — with the rest of the Fig. 5/6
setup unchanged.  Outputs land in ``benchmarks/outputs/<id>.txt``.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    QUICK,
    prepare_context,
    run_activation_fault_comparison,
    run_ecc_comparison,
    run_fault_model_comparison,
    run_format_ablation,
    run_hard_deploy_ablation,
    run_layer_vulnerability,
    run_mobilenet_panel,
)


@pytest.fixture(scope="module")
def context():
    """One trained VGG16/synth10 base shared by every extension bench
    (and with the figure benches, via the on-disk state cache)."""
    return prepare_context("vgg16", "synth10", QUICK)


def test_ext_activation_faults(save_output, context):
    """EXT-A: under transient activation faults every bounding scheme
    must beat unprotected at high upset counts; bounds still work when
    the corruption strikes feature maps."""
    result = run_activation_fault_comparison(preset=QUICK, context=context)
    save_output("ext_activation", result.to_text())
    data = result.data
    # At the heaviest upset count, bounded schemes beat unprotected.
    heavy = "n=64"
    assert data["fitact"][heavy] >= data["none"][heavy] - 0.05
    assert data["clipact"][heavy] >= data["none"][heavy] - 0.05


def test_ext_ecc_composition(save_output, context):
    """EXT-E: ECC corrects sparse flips at ~22% memory; at dense rates
    multi-bit words escape and activation bounds take over."""
    result = run_ecc_comparison(preset=QUICK, context=context)
    save_output("ext_ecc", result.to_text())
    data = result.data
    rates = [k for k in data["none"] if k not in ("clean", "memory_mb")]
    low_rate = sorted(rates)[0]
    # ECC alone restores the unprotected model at the lower tested rate.
    assert data["none+ecc"][low_rate] >= data["none"][low_rate] - 0.02
    # Memory: ECC costs ~22% on every scheme.
    assert data["none+ecc"]["memory_mb"] > data["none"]["memory_mb"] * 1.2


def test_ext_fault_models(save_output, context):
    """EXT-F: at a matched flip budget, FitAct's protection generalises
    from the paper's iid flips to bursts and stuck-at cells."""
    result = run_fault_model_comparison(preset=QUICK, context=context)
    save_output("ext_faultmodels", result.to_text())
    data = result.data
    for label, row in data.items():
        assert row["fitact"] >= row["none"] - 0.05, label
    # Stuck-at masking: effective flips below the iid budget.
    assert data["stuck-at-0"]["mean_flips"] < data["iid flips"]["mean_flips"]


def test_ext_mobilenet_panel(save_output):
    """EXT-M: the paper's comparison on the architecture its motivation
    actually targets.  Channel-wise FitAct restores the ordering;
    neuron-wise initialisation over-fits depthwise feature maps (the
    recorded negative finding)."""
    result = run_mobilenet_panel(preset=QUICK)
    save_output("ext_mobilenet", result.to_text())
    data = result.data
    rates = sorted((k for k in data if k != "clean"), key=float)
    mid, top = rates[2], rates[-1]
    # Channel-wise bounds recover most of the neuron-wise clean-accuracy
    # loss and win decisively under fault.
    assert data["clean"]["fitact-ch"] >= data["clean"]["fitact"] + 0.05
    assert data[mid]["fitact-ch"] >= data[mid]["none"] + 0.1
    assert data[top]["fitact-ch"] >= data[top]["none"] + 0.1
    assert data[top]["fitact-ch"] >= data[top]["ranger"] - 0.05
    # Neuron-wise still beats unprotected where faults bite hard — but
    # its clean-accuracy tax on depthwise maps is the recorded finding.
    assert data[top]["fitact"] >= data[top]["none"] + 0.1
    for row in data.values():
        for value in row.values():
            assert 0.0 <= value <= 1.0


def test_ext_layer_vulnerability(save_output, context):
    """EXT-L: equal flip budgets confined per layer — early conv groups
    are the most vulnerable unprotected, and FitAct closes the gap."""
    result = run_layer_vulnerability(preset=QUICK, context=context)
    save_output("ext_layers", result.to_text())
    data = result.data
    for row in data.values():
        assert row["fitact"] >= row["none"] - 0.05
    # Some group must be meaningfully vulnerable unprotected (else the
    # experiment is vacuous at this budget).
    assert min(row["none"] for row in data.values()) < 0.5


def test_ablation_hard_deploy(save_output, context):
    """ABL-H: the tuned bounds deploy as the hard piecewise form with
    matching accuracy; the timings in ``result.data`` bound the gate
    cost (the saved artefact carries no wall clock)."""
    result = run_hard_deploy_ablation(preset=QUICK, context=context)
    save_output("ablation_harddeploy", result.to_text())
    smooth = result.data["smooth (FitReLU)"]
    hard = result.data["hard (FitReLU-Naive)"]
    assert abs(smooth["clean"] - hard["clean"]) < 0.1
    # Timing on a shared 2-core host is too noisy for a strict ordering
    # assertion between two ~25 ms medians (observed both ways across
    # runs); assert only that neither deployment form is pathologically
    # slower than the plain-ReLU reference.
    plain_seconds = result.data["plain"]["seconds"]
    assert smooth["seconds"] < plain_seconds * 3
    assert hard["seconds"] < plain_seconds * 3


def test_ablation_word_format(save_output, context):
    """ABL-W: narrower words expose fewer, lower-magnitude bits; Q15.16
    pays for its range with fault vulnerability that FitAct recovers."""
    result = run_format_ablation(preset=QUICK, context=context)
    save_output("ablation_format", result.to_text())
    data = result.data
    # Expected flips scale linearly with word width.
    assert data["q15.16:none"]["expected_flips"] > data["q7.8:none"][
        "expected_flips"
    ] > data["q3.4:none"]["expected_flips"]
    # FitAct recovers accuracy on the paper's format.
    assert data["q15.16:fitact"]["faulty"] >= data["q15.16:none"]["faulty"] - 0.05
