"""Bit-exactness suite: compiled plans vs the eval-mode module forward.

The runtime's core contract is *exact* float32 equality — same bits,
not just allclose — between ``InferencePlan`` logits and the module
path, for every registry architecture and every bounded-activation
class, clean and under injected faults.  Exactness is what lets the
plan be the only inference path of campaigns and serving: accuracies,
SDC counts, and every downstream statistic are those of the module
forward, which stays here as the oracle.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import nn
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.core.bounded_relu import BoundedReLU, FitReLUNaive, GBReLU
from repro.core.bounded_tanh import BoundedTanh
from repro.core.fitrelu import FitReLU
from repro.core.surgery import find_activation_sites
from repro.core.training import evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator, forward_logits
from repro.fault.campaign import FaultCampaign
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.models.registry import MODEL_NAMES, build_model
from repro.quant import quantize_module
from repro.runtime import compile_model
from repro.runtime.kernels import walk_kernels


def _random_batch(rng, n, size):
    return rng.standard_normal((n, 3, size, size)).astype(np.float32)


def _module_logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _run_checking_scratch_aliasing(plan, x):
    """Run ``plan(x)`` asserting no step returns a view of the arena.

    Scratch is reused by the next step, so a returned view would be
    overwritten under the consumer of that step's output.
    """
    returned = []
    for step in walk_kernels(plan.steps):
        def run(inputs, _run=step.run):
            out = _run(inputs)
            returned.append(out)
            return out

        step.run = run
    try:
        logits = plan(x)
    finally:
        for step in walk_kernels(plan.steps):
            del step.run
    arena = list(plan.scratch._store.values())
    assert returned and arena
    for out in returned:
        assert not any(np.shares_memory(out, buf) for buf in arena)
    return logits


# ----------------------------------------------------------------------
# Every registry architecture
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,n",
    # resnet18 at batch 128: its K-major convs split the batch into
    # default-sized image blocks, the last one ragged.
    [*((name, 3) for name in MODEL_NAMES), ("resnet18", 128)],
    ids=[*MODEL_NAMES, "resnet18-b128"],
)
def test_registry_model_bit_exact(name, n):
    rng = np.random.default_rng(7)
    model = build_model(name, num_classes=10, scale=0.125, image_size=32, seed=0)
    x = _random_batch(rng, n, 32)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(_run_checking_scratch_aliasing(plan, x), reference)


def test_quantized_model_bit_exact():
    rng = np.random.default_rng(8)
    model = quantize_module(
        build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    )
    x = _random_batch(rng, 5, 16)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), _module_logits(model, x))


# ----------------------------------------------------------------------
# Every bounded-activation class, fused and standalone
# ----------------------------------------------------------------------
# Each factory receives the conv activation shape (C, H, W) and the
# classifier feature width, returning the two activation instances.
_ACTIVATION_CASES = {
    "gbrelu-zero": lambda shape, feats: (GBReLU(1.5, "zero"), GBReLU(2.0, "zero")),
    "gbrelu-saturate": lambda shape, feats: (
        GBReLU(1.5, "saturate"),
        GBReLU(2.0, "saturate"),
    ),
    "fitrelu-naive-neuron": lambda shape, feats: (
        FitReLUNaive(np.linspace(0.5, 2.5, int(np.prod(shape))).reshape(shape)),
        FitReLUNaive(np.linspace(0.5, 2.5, feats)),
    ),
    "bounded-relu-channel-sat": lambda shape, feats: (
        BoundedReLU(
            np.linspace(1.0, 2.0, shape[0]).reshape(shape[0], 1, 1), "saturate"
        ),
        BoundedReLU(np.float32(1.75), "saturate"),
    ),
    "bounded-tanh": lambda shape, feats: (
        BoundedTanh(np.linspace(1.0, 3.0, shape[0]).reshape(shape[0], 1, 1)),
        BoundedTanh(2.5),
    ),
    "fitrelu-relative": lambda shape, feats: (
        FitReLU(np.linspace(0.5, 2.5, int(np.prod(shape))).reshape(shape)),
        FitReLU(np.linspace(0.5, 2.5, feats)),
    ),
    "fitrelu-absolute": lambda shape, feats: (
        FitReLU(1.25, slope_mode="absolute"),
        FitReLU(0.75, slope_mode="absolute"),
    ),
    "relu": lambda shape, feats: (nn.ReLU(), nn.ReLU()),
    "leaky-relu": lambda shape, feats: (nn.LeakyReLU(0.05), nn.LeakyReLU(0.2)),
    "tanh": lambda shape, feats: (nn.Tanh(), nn.Tanh()),
    "sigmoid": lambda shape, feats: (nn.Sigmoid(), nn.Sigmoid()),
    "softmax": lambda shape, feats: (nn.Softmax(axis=1), nn.Softmax(axis=-1)),
}


@pytest.mark.parametrize("case", sorted(_ACTIVATION_CASES))
def test_activation_class_bit_exact(case):
    rng = np.random.default_rng(11)
    conv_act, head_act = _ACTIVATION_CASES[case]((6, 16, 16), 24)
    model = nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=0),
        conv_act,
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 8 * 8, 24, rng=1),
        head_act,
        nn.Linear(24, 10, rng=2),
    )
    x = _random_batch(rng, 4, 16)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(_run_checking_scratch_aliasing(plan, x), reference)


def test_batchnorm_fusion_bit_exact():
    """Conv+BN2d and Linear+BN1d epilogues (plus a standalone BN step)."""
    rng = np.random.default_rng(12)
    model = nn.Sequential(
        nn.BatchNorm2d(3),  # standalone BN kernel (no preceding GEMM)
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=0),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.AvgPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * 8 * 8, 16, rng=1),
        nn.BatchNorm1d(16),
        nn.Tanh(),
        nn.Linear(16, 10, rng=2),
    )
    # Give the running stats non-trivial values via a few training steps.
    for _ in range(3):
        model(Tensor(_random_batch(rng, 8, 16)))
    x = _random_batch(rng, 4, 16)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), reference)


def test_protected_lenet_surgery_bit_exact():
    """A surgery-protected model (the deployment shape) stays exact."""
    rng = np.random.default_rng(13)
    model = build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    for path in find_activation_sites(model):
        model.set_submodule(path, FitReLU(np.float32(1.5)))
    x = _random_batch(rng, 4, 16)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), reference)


# ----------------------------------------------------------------------
# Fault visibility
# ----------------------------------------------------------------------
def test_flipped_bit_changes_runtime_identically():
    """A flipped weight bit perturbs plan and module outputs the same way."""
    rng = np.random.default_rng(21)
    model = quantize_module(
        build_model("resnet18", num_classes=10, scale=0.125, image_size=16, seed=0)
    )
    x = _random_batch(rng, 4, 16)
    plan = compile_model(model, x.shape)
    clean = plan(x)
    np.testing.assert_array_equal(clean, forward_logits(model, x))

    injector = FaultInjector(model)
    sites = injector.sample(BitFlipFaultModel(n_flips=48), rng=3)
    with injector.inject(sites):
        faulty_module = forward_logits(model, x)
        faulty_plan = plan(x)
    np.testing.assert_array_equal(faulty_plan, faulty_module)
    assert not np.array_equal(faulty_plan, clean), "flips must perturb logits"
    # Restore must be visible in the very next plan forward.
    np.testing.assert_array_equal(plan(x), clean)


def test_campaign_sdc_counts_identical_with_runtime():
    """Accuracy/flip streams match exactly: Evaluator vs module forward."""

    def run(module_oracle: bool):
        model = quantize_module(
            build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
        )
        dataset = SyntheticImageDataset(
            num_classes=10, num_samples=256, image_size=16, seed=0, split="test"
        )
        loader = DataLoader(
            dataset, batch_size=100, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
        )
        evaluate = (
            partial(evaluate_accuracy, model, loader)
            if module_oracle
            else Evaluator(loader).bind(model)
        )
        campaign = FaultCampaign(FaultInjector(model), evaluate, trials=4, seed=0)
        return campaign.run(BitFlipFaultModel.at_rate(1e-4))

    module_result = run(module_oracle=True)
    runtime_result = run(module_oracle=False)
    np.testing.assert_array_equal(
        module_result.accuracies, runtime_result.accuracies
    )
    np.testing.assert_array_equal(
        module_result.flip_counts, runtime_result.flip_counts
    )
