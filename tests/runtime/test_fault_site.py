"""Native compiled support for transient activation-fault sites.

``repro.fault.activation`` wraps activation modules in ``_FaultedSite``
wrappers.  The compiler recognises them: the wrapped activation fuses
into the preceding GEMM epilogue as usual and a ``FaultStepKernel``
replays the encode/flip/decode surgery with the layer's live random
stream — so protected-model campaigns keep the compiled speedup at
instrumented sites *and* stay bit-identical to the module path, clean
and armed.  (Before this, compiling an instrumented ResNet crashed
outright: the structural block compiler handed the wrapper to
``apply_activation``.)
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.fitrelu import FitReLU
from repro.core.surgery import find_activation_sites
from repro.core.training import evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator, forward_logits
from repro.fault.activation import (
    ActivationFaultCampaign,
    ActivationFaultInjector,
    ActivationFaultModel,
)
from repro.models.registry import build_model
from repro.runtime import compile_model
from repro.runtime.kernels import FallbackKernel, FaultStepKernel

FAULTS = ActivationFaultModel.exact(3)


def _build(name: str, size: int = 16):
    """A registry model; ``<name>+fitact`` swaps in FitReLU at every site."""
    base, _, protection = name.partition("+")
    model = build_model(
        base, num_classes=10, scale=0.125, image_size=size, seed=0
    )
    if protection == "fitact":
        for path in find_activation_sites(model):
            model.set_submodule(path, FitReLU(np.float32(1.5)))
    model.eval()
    return model


def _batch(size: int = 16, n: int = 4):
    return (
        np.random.default_rng(0).standard_normal((n, 3, size, size)).astype(np.float32)
    )


@pytest.mark.parametrize(
    "name,size,n",
    [
        ("lenet", 16, 4),
        ("resnet18", 16, 4),
        ("vgg11", 32, 4),
        ("mobilenet", 32, 4),
        # The protected-campaign deployment shape at an eval batch.
        ("lenet+fitact", 16, 128),
    ],
    ids=[
        "lenet-16", "resnet18-16", "vgg11-32", "mobilenet-32", "lenet+fitact-b128"
    ],
)
def test_instrumented_model_compiles_natively_and_matches(name, size, n):
    """Clean pass-through, armed equality, counters, disarm restore."""
    model = _build(name, size)
    x = _batch(size, n)
    clean = forward_logits(model, x)
    injector = ActivationFaultInjector(model)
    plan = compile_model(model, x.shape)  # crashed for resnet18 before
    assert "fault-site" in plan.describe()
    assert not any(isinstance(step, FallbackKernel) for step in plan.steps)
    # Disarmed sites are pure pass-throughs.
    np.testing.assert_array_equal(plan(x), clean)

    with injector.active(FAULTS, seed=5):
        armed_plan = plan(x)
        plan_flips = injector.flips_injected
    with injector.active(FAULTS, seed=5):
        armed_module = forward_logits(model, x)
        module_flips = injector.flips_injected
    np.testing.assert_array_equal(armed_plan, armed_module)
    assert plan_flips == module_flips > 0
    assert not np.array_equal(armed_plan, clean), "faults must perturb logits"
    # Disarming restores the clean stream immediately.
    np.testing.assert_array_equal(plan(x), clean)


def test_fused_epilogue_survives_wrapping():
    """Wrapped activations still fuse into the conv/linear epilogues.

    The whole point of the native kernel: the plan should contain no
    standalone activation steps for wrapped ReLUs, only fused GEMM
    kernels followed by fault steps.
    """
    model = _build("lenet")
    ActivationFaultInjector(model)
    plan = compile_model(model, (2, 3, 16, 16))
    description = plan.describe()
    assert "ReLU" in description  # fused into conv/linear lines
    assert description.count("fault-site") == len(
        [s for s in plan.steps if isinstance(s, FaultStepKernel)]
    )
    assert any(isinstance(step, FaultStepKernel) for step in plan.steps)


def test_plan_compiled_before_instrumentation_tracks_surgery():
    """Structure changes rebuild the kernel program automatically."""
    model = _build("resnet18")
    x = _batch()
    plan = compile_model(model, x.shape)
    clean = plan(x)

    injector = ActivationFaultInjector(model)
    with injector.active(FAULTS, seed=9):
        armed_plan = plan(x)  # plan must notice the new wrappers
    with injector.active(FAULTS, seed=9):
        armed_module = forward_logits(model, x)
    np.testing.assert_array_equal(armed_plan, armed_module)
    assert not np.array_equal(armed_plan, clean)

    removed = injector.remove()
    assert removed > 0
    np.testing.assert_array_equal(plan(x), clean)


def test_warmup_does_not_consume_fault_streams():
    """Compiling while armed must not advance the layers' RNG streams.

    A plan compiled inside an armed trial runs its warm-up forward
    there.  That pass must leave streams and counters untouched or
    plan and module trials diverge.
    """
    model = _build("lenet")
    x = _batch()
    injector = ActivationFaultInjector(model)
    with injector.active(FAULTS, seed=11):
        plan = compile_model(model, x.shape)  # warm pass runs armed
        assert injector.flips_injected == 0, "warm-up must not inject"
        armed_plan = plan(x)
    with injector.active(FAULTS, seed=11):
        armed_module = forward_logits(model, x)
    np.testing.assert_array_equal(armed_plan, armed_module)


def test_activation_campaign_identical_with_runtime():
    """End to end: the activation-fault campaign's accuracy stream is
    bit-identical through the module path and the compiled runtime."""

    def run(module_oracle: bool):
        model = _build("lenet")
        dataset = SyntheticImageDataset(
            num_classes=10, num_samples=192, image_size=16, seed=0, split="test"
        )
        loader = DataLoader(
            dataset, batch_size=64, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
        )
        evaluate = (
            partial(evaluate_accuracy, model, loader)
            if module_oracle
            else Evaluator(loader).bind(model)
        )
        injector = ActivationFaultInjector(model)
        campaign = ActivationFaultCampaign(injector, evaluate, trials=3, seed=0)
        return campaign.run(ActivationFaultModel.at_rate(1e-6))

    module_result = run(module_oracle=True)
    runtime_result = run(module_oracle=False)
    np.testing.assert_array_equal(
        module_result.accuracies, runtime_result.accuracies
    )
    np.testing.assert_array_equal(
        module_result.flip_counts, runtime_result.flip_counts
    )
