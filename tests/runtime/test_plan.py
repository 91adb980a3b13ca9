"""InferencePlan mechanics: refresh contract, buffers, threading, pickling."""

from __future__ import annotations

import gc
import math
import threading
import weakref

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor
from repro.core.training import evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.errors import ConfigurationError
from repro.eval.evaluator import Evaluator, forward_logits
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.models.registry import build_model
from repro.optim import SGD
from repro.optim.adam import Adam
from repro.quant import quantize_module
from repro.runtime import compile_model, register_block_compiler
from repro.runtime.kernels import FallbackKernel, ScratchArena, walk_kernels


def _lenet():
    return build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)


def _batch(rng, n=4, size=16):
    return rng.standard_normal((n, 3, size, size)).astype(np.float32)


# ----------------------------------------------------------------------
# Construction and execution basics
# ----------------------------------------------------------------------
def test_plan_accepts_sample_shape_and_any_batch_size():
    rng = np.random.default_rng(0)
    model = _lenet()
    plan = compile_model(model, (3, 16, 16))  # sample shape, batch inferred
    for n in (1, 3, 8, 3):  # revisit a size: buffers must be reusable
        x = _batch(rng, n)
        np.testing.assert_array_equal(plan(x), forward_logits(model, x))


def test_plan_returns_owned_arrays_and_never_writes_input():
    rng = np.random.default_rng(1)
    model = _lenet()
    plan = compile_model(model, (4, 3, 16, 16))
    x = _batch(rng, 4)
    snapshot = x.copy()
    first = plan(x)
    first_copy = first.copy()
    plan(rng.standard_normal(x.shape).astype(np.float32))
    np.testing.assert_array_equal(x, snapshot)  # input untouched
    np.testing.assert_array_equal(first, first_copy)  # output not recycled


def test_plan_accepts_tensor_input():
    rng = np.random.default_rng(2)
    model = _lenet()
    plan = compile_model(model, (2, 3, 16, 16))
    x = _batch(rng, 2)
    np.testing.assert_array_equal(plan(Tensor(x)), plan(x))


def test_plan_runs_eval_semantics_regardless_of_training_flag():
    """Plans are inference-only: train-mode Dropout/BN never leak in."""
    rng = np.random.default_rng(3)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=0),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.Dropout(0.5, rng=0),
        nn.Flatten(),
        nn.Linear(4 * 16 * 16, 10, rng=1),
    )
    x = _batch(rng, 4)
    model.eval()
    reference = forward_logits(model, x)
    model.train(True)  # plan output must not change
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), reference)
    # BN running stats must not have been touched by plan forwards.
    assert int(model[1].num_batches_tracked) == 0


def test_empty_input_shape_rejected():
    with pytest.raises(ConfigurationError):
        compile_model(_lenet(), ())


# ----------------------------------------------------------------------
# Refresh / invalidation contract
# ----------------------------------------------------------------------
def test_replaced_parameter_array_is_detected_automatically():
    rng = np.random.default_rng(4)
    model = _lenet()
    x = _batch(rng, 2)
    plan = compile_model(model, x.shape)
    plan(x)
    param = next(model.parameters())
    param.data = np.zeros_like(param.data)  # array replaced, not signalled
    np.testing.assert_array_equal(plan(x), forward_logits(model, x))


@pytest.mark.parametrize("make_optimizer", [
    lambda params: SGD(params, lr=0.05, momentum=0.9),
    lambda params: Adam(params, lr=0.01),
])
def test_plan_tracks_optimizer_steps(make_optimizer):
    """A compiled plan never serves pre-step weights after optimizer.step().

    Optimizer updates rebind ``param.data`` to fresh arrays without
    signalling the plan (the audited RPL001 baseline entries in
    optim/sgd.py and optim/adam.py); the plan's per-call identity probe
    must catch the rebind on its own.
    """
    rng = np.random.default_rng(6)
    model = _lenet()
    x = _batch(rng, 2)
    plan = compile_model(model, x.shape)
    before = plan(x).copy()
    params = list(model.parameters())
    optimizer = make_optimizer(params)
    for param in params:
        param.grad = rng.standard_normal(param.shape).astype(np.float32)
    optimizer.step()
    after = plan(x)
    np.testing.assert_array_equal(after, forward_logits(model, x))
    assert not np.array_equal(after, before)


def test_in_place_buffer_mutation_needs_refresh():
    """The documented edge: in-place writes to folded BN state."""
    rng = np.random.default_rng(5)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, bias=False, rng=0),
        nn.BatchNorm2d(4),
        nn.Flatten(),
        nn.Linear(4 * 16 * 16, 10, rng=1),
    )
    x = _batch(rng, 2)
    plan = compile_model(model, x.shape)
    plan(x)
    # Write *through* the existing running_var array: same object, so
    # the staleness probe cannot see it, and the folded inv_std is a
    # computed copy (unlike the mean, which is a live view)...
    model[1].running_var[...] = 9.0
    stale = plan(x)
    fresh_reference = forward_logits(model, x)
    assert not np.array_equal(stale, fresh_reference)
    # ...until refresh() refolds the constants.
    plan.refresh()
    np.testing.assert_array_equal(plan(x), fresh_reference)


def test_load_state_dict_invalidates_plans():
    rng = np.random.default_rng(6)
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, bias=False, rng=0),
        nn.BatchNorm2d(4),
        nn.Flatten(),
        nn.Linear(4 * 16 * 16, 10, rng=1),
    )
    donor = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, bias=False, rng=7),
        nn.BatchNorm2d(4),
        nn.Flatten(),
        nn.Linear(4 * 16 * 16, 10, rng=8),
    )
    donor[1].running_mean[...] = 0.5  # distinct folded constants
    x = _batch(rng, 2)
    plan = compile_model(model, x.shape)
    plan(x)
    model.load_state_dict(donor.state_dict())
    np.testing.assert_array_equal(plan(x), forward_logits(model, x))


# ----------------------------------------------------------------------
# Fallback and extension points
# ----------------------------------------------------------------------
class _OddBlock(nn.Module):
    """A custom module the compiler has never heard of."""

    def __init__(self) -> None:
        super().__init__()
        self.linear = nn.Linear(8, 8, rng=0)

    def forward(self, x):
        return self.linear(x) * 0.5 + x


def test_unknown_module_falls_back_to_module_forward():
    rng = np.random.default_rng(7)
    model = nn.Sequential(nn.Linear(8, 8, rng=1), _OddBlock(), nn.Linear(8, 4, rng=2))
    x = rng.standard_normal((3, 8)).astype(np.float32)
    plan = compile_model(model, x.shape)
    assert any(isinstance(step, FallbackKernel) for step in plan.steps)
    np.testing.assert_array_equal(plan(x), forward_logits(model, x))


def test_register_block_compiler_overrides_fallback():
    class _Doubler(nn.Module):
        def forward(self, x):
            return x * 2.0

    class _DoublerKernel:
        def refresh(self):
            pass

        def run(self, x):
            return x * np.float32(2.0)

        def describe(self):
            return "doubler"

    register_block_compiler(_Doubler, lambda module: [_DoublerKernel()])
    model = nn.Sequential(nn.Linear(4, 4, rng=0), _Doubler())
    x = np.random.default_rng(8).standard_normal((2, 4)).astype(np.float32)
    plan = compile_model(model, x.shape)
    assert "doubler" in plan.describe()
    np.testing.assert_array_equal(plan(x), forward_logits(model, x))


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------
def test_plan_scratch_is_the_largest_single_need_per_name(monkeypatch):
    """One arena per plan, sized by its largest request per name.

    Per-kernel scratch would hold the sum over kernels and batch sizes;
    the shared arena holds only the largest single request, whichever
    kernel (nested residual ones included) made it.
    """
    needs: dict[str, list[int]] = {}
    get = ScratchArena.get

    def recording_get(self, name, shape, dtype=np.float32):
        needs.setdefault(name, []).append(
            math.prod(shape) * np.dtype(dtype).itemsize
        )
        return get(self, name, shape, dtype)

    monkeypatch.setattr(ScratchArena, "get", recording_get)
    rng = np.random.default_rng(10)
    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=32, seed=0)
    plan = compile_model(model, (1, 3, 32, 32), warm=False)
    x = rng.standard_normal((128, 3, 32, 32)).astype(np.float32)
    for batch in (1, 7, 16, 128):
        np.testing.assert_array_equal(
            plan(x[:batch]), forward_logits(model, x[:batch])
        )
    sizes = plan.scratch.sizes()
    assert sizes == {name: max(requests) for name, requests in needs.items()}
    assert {"cols", "gemm", "act_mask"} <= set(sizes)
    assert sizes["cols"] < sum(set(needs["cols"]))
    # Kernels keep only their own out/padded arrays; the plan reports both.
    memory = plan.memory()
    assert memory["scratch"] == sizes
    assert set(memory["kernels"]) == {"out", "padded"}


def test_recompiled_kernels_share_the_plan_arena():
    from repro.fault.activation import ActivationFaultInjector

    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=16, seed=0)
    plan = compile_model(model, (2, 3, 16, 16))
    arena = plan.scratch
    before = list(plan.steps)
    injector = ActivationFaultInjector(model)  # surgery: the plan recompiles
    try:
        x = _batch(np.random.default_rng(3), 2)
        np.testing.assert_array_equal(plan(x), forward_logits(model, x))
        assert plan.steps != before and plan.scratch is arena
        wired = [getattr(step, "bufs", None) for step in walk_kernels(plan.steps)]
        assert all(bufs.scratch is arena for bufs in wired if bufs is not None)
        assert any(bufs is not None for bufs in wired)
    finally:
        injector.remove()


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_plans_of_two_models_run_concurrently_with_private_arenas():
    """Arenas are per plan: two models' plans driven from two threads at
    once return exactly their serial logits."""
    rng = np.random.default_rng(12)
    models = [
        _lenet(),
        build_model("resnet18", num_classes=10, scale=0.125, image_size=16, seed=1),
    ]
    plans = [compile_model(model, (8, 3, 16, 16)) for model in models]
    assert plans[0].scratch is not plans[1].scratch
    batches = [_batch(rng, n) for n in (8, 5, 8, 3)]
    expected = [[forward_logits(model, b) for b in batches] for model in models]
    results: dict[int, list[np.ndarray]] = {0: [], 1: []}
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def worker(index: int) -> None:
        try:
            start.wait()
            for _ in range(3):
                results[index] = [plans[index](b) for b in batches]
        except BaseException as error:  # noqa: BLE001 - surface in main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index in range(2):
        for got, want in zip(results[index], expected[index]):
            np.testing.assert_array_equal(got, want)


def test_concurrent_plan_calls_are_serialised_and_correct():
    rng = np.random.default_rng(9)
    model = _lenet()
    plan = compile_model(model, (4, 3, 16, 16))
    batches = [_batch(rng, 4) for _ in range(4)]
    expected = [forward_logits(model, b) for b in batches]
    results: dict[int, np.ndarray] = {}
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            for _ in range(5):
                results[index] = plan(batches[index])
        except BaseException as error:  # noqa: BLE001 - surface in main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index, reference in enumerate(expected):
        np.testing.assert_array_equal(results[index], reference)


# ----------------------------------------------------------------------
# Evaluator integration
# ----------------------------------------------------------------------
def _loader() -> DataLoader:
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=128, image_size=16, seed=0, split="test"
    )
    return DataLoader(
        dataset, batch_size=50, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
    )


def test_evaluator_runtime_accuracy_matches_module_path():
    model = _lenet()
    loader = _loader()
    assert Evaluator(loader).accuracy(model) == evaluate_accuracy(model, loader)


def test_evaluator_does_not_pin_dropped_models():
    """A long-lived evaluator (one per experiment context) keeps no
    model its caller has dropped, and with it no plan or buffers."""
    evaluator = Evaluator(_loader())
    refs = []
    accuracies = []
    for _ in range(3):
        model = quantize_module(_lenet())
        injector = FaultInjector(model)
        sites = injector.sample(BitFlipFaultModel.exact(1), rng=0)
        accuracies.append(evaluator.accuracy(model))
        # The replica-lane path caches a second wrapper per model.
        evaluator.bind(model).lane_accuracies(injector, [sites])
        refs.append(weakref.ref(model))
        del model, injector, sites
    gc.collect()
    assert [ref() is None for ref in refs[:-1]] == [True, True]
    assert len(set(accuracies)) == 1  # same weights, same accuracy
