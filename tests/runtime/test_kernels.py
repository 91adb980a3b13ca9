"""Tiered conv kernels: dispatch, per-tier bit-exactness, threaded GEMM.

Each conv kernel picks its execution tier per call from the output
map's area (K-major ``im2col`` per image, every grouped conv
included, or channels-last ``nhwc``); every tier — and the optional
batch-partitioned threaded gather on top — must produce float32 logits
bit-identical to the eval-mode module forward.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import nn
from repro.autograd.grad_mode import no_grad
from repro.autograd.ops_conv import KMAJOR_MIN_AREA, conv_gemm, im2col
from repro.autograd.tensor import Tensor
from repro.core.training import evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.errors import ConfigurationError
from repro.eval.evaluator import Evaluator
from repro.fault.campaign import FaultCampaign
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime import compile_model, resolve_gemm_workers
from repro.runtime import kernels as kernels_module
from repro.runtime.kernels import ConvKernel


def _module_logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _conv_kernels(plan):
    found = []

    def walk(steps):
        for step in steps:
            if isinstance(step, ConvKernel):
                found.append(step)
            main = getattr(step, "main", None)
            if main is not None:
                walk(main)
                walk(step.down or [])

    walk(plan.steps)
    return found


# ----------------------------------------------------------------------
# Tier dispatch (decided per call from the output map's area)
# ----------------------------------------------------------------------
def _out_area(kernel):
    ((_, _, oh, ow),) = [shape for name, shape, _ in kernel.bufs._store if name == "out"]
    return oh * ow


def test_resnet_tiers_follow_the_output_area():
    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=32, seed=0)
    plan = compile_model(model, (2, 3, 32, 32))
    kernels = _conv_kernels(plan)
    for kernel in kernels:
        kmajor = _out_area(kernel) >= KMAJOR_MIN_AREA
        assert kernel.tier == ("im2col" if kmajor else "nhwc")
    # The 1x1 stride-2 downsamples land on both sides of the threshold.
    pointwise = {k.tier for k in kernels if k.conv.kernel_size == (1, 1)}
    assert pointwise == {"im2col", "nhwc"}
    assert "[nhwc]" in plan.describe() and "[im2col]" in plan.describe()


def test_mobilenet_depthwise_runs_kmajor_at_every_map_size():
    model = build_model(
        "mobilenet", num_classes=10, scale=0.125, image_size=32, seed=0
    )
    plan = compile_model(model, (2, 3, 32, 32))
    kernels = _conv_kernels(plan)
    grouped = [k for k in kernels if k.conv.groups != 1]
    assert {_out_area(k) for k in grouped} == {256, 64, 16, 4, 1}
    assert {k.tier for k in grouped} == {"im2col"}
    pointwise = {k.tier for k in kernels if k.conv.kernel_size == (1, 1)}
    assert pointwise == {"im2col", "nhwc"}


def test_padded_1x1_conv_stays_on_im2col_tier():
    """Padding makes a 1x1 conv read positions the pointwise path skips."""
    model = nn.Sequential(nn.Conv2d(3, 4, 1, padding=1, rng=0))
    plan = compile_model(model, (2, 3, 8, 8))  # 10x10 output: K-major
    (kernel,) = _conv_kernels(plan)
    assert kernel.tier == "im2col"
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(plan(x), _module_logits(model, x))


def test_describe_marks_a_kernel_that_has_not_run():
    kernel = ConvKernel(nn.Conv2d(3, 4, 3, rng=0))
    assert kernel.tier is None
    assert kernel.describe() == "conv(3, 3)[unrun]"


# ----------------------------------------------------------------------
# The K-major GEMM: one fixed shape per image
# ----------------------------------------------------------------------
# (out_channels, in_channels, kernel, groups, map side): VGG16 quick's
# K-major layers, a ResNet 1x1 downsample, a grouped and a depthwise conv.
_KMAJOR_SHAPES = [
    (8, 3, 3, 1, 32),
    (8, 8, 3, 1, 32),
    (16, 16, 3, 1, 16),
    (16, 8, 1, 1, 16),
    (16, 16, 3, 2, 16),
    (16, 16, 3, 16, 8),
]


@pytest.mark.parametrize("shape", _KMAJOR_SHAPES, ids=str)
def test_stacked_kmajor_gemm_equals_per_image_loop(shape):
    """numpy's stacked matmul must hand each image to BLAS as one 2-D
    GEMM: its non-BLAS fallback would round differently."""
    out_channels, in_channels, k, groups, side = shape
    rng = np.random.default_rng(23)
    weight = rng.standard_normal(
        (out_channels, in_channels // groups, k, k)
    ).astype(np.float32)
    x = rng.standard_normal((5, in_channels, side, side)).astype(np.float32)
    cols = im2col(x, (k, k), (1, 1), (k // 2, k // 2), kmajor=True)
    stacked = conv_gemm(weight, cols, groups)
    og, kg = out_channels // groups, cols.shape[1] // groups
    w_groups = weight.reshape(groups, og, kg)
    for image in range(x.shape[0]):
        for group in range(groups):
            expected = w_groups[group] @ cols[image, group * kg : (group + 1) * kg]
            got = stacked[image, group * og : (group + 1) * og]
            assert got.tobytes() == expected.tobytes()


def test_nhwc_gemm_is_one_position_major_gemm():
    rng = np.random.default_rng(24)
    weight = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)
    x = rng.standard_normal((5, 16, 4, 4)).astype(np.float32)
    cols = im2col(x, (3, 3), (1, 1), (1, 1), kmajor=False)
    w_perm = np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(32, -1)
    assert conv_gemm(weight, cols, 1).tobytes() == (cols @ w_perm.T).tobytes()


@pytest.mark.parametrize("groups", [1, 4])
def test_kmajor_output_of_an_image_does_not_depend_on_its_batch(groups):
    rng = np.random.default_rng(25)
    model = nn.Sequential(
        nn.Conv2d(8, 16, 3, padding=1, groups=groups, rng=0),
        nn.BatchNorm2d(16),
        nn.ReLU(),
    )
    x = rng.standard_normal((128, 8, 16, 16)).astype(np.float32)
    plan = compile_model(model, (1, 8, 16, 16))
    full = plan(x).copy()
    assert {k.tier for k in _conv_kernels(plan)} == {"im2col"}
    module_full = _module_logits(model, x)
    for batch in (1, 7):
        np.testing.assert_array_equal(plan(x[:batch]), full[:batch])
        np.testing.assert_array_equal(_module_logits(model, x[:batch]), full[:batch])
    np.testing.assert_array_equal(module_full, full)


# ----------------------------------------------------------------------
# Per-tier bit-exactness over awkward geometries
# ----------------------------------------------------------------------
_GEOMETRIES = {
    "conv3x3-pad": dict(kernel_size=3, padding=1),
    "conv3x3-stride2": dict(kernel_size=3, stride=2, padding=1),
    "conv5x5-pad2": dict(kernel_size=5, padding=2),
    "conv1x1": dict(kernel_size=1),
    "conv1x1-stride2": dict(kernel_size=1, stride=2),
    "conv4x2-asym": dict(kernel_size=(4, 2), padding=(1, 0)),
    "conv3x3-nopad": dict(kernel_size=3),
}


@pytest.mark.parametrize("case", sorted(_GEOMETRIES))
@pytest.mark.parametrize("batch", [1, 5])
def test_conv_geometry_bit_exact(case, batch):
    rng = np.random.default_rng(17)
    model = nn.Sequential(
        nn.Conv2d(6, 8, rng=0, **_GEOMETRIES[case]),
        nn.ReLU(),
        nn.Flatten(),
    )
    x = rng.standard_normal((batch, 6, 17, 17)).astype(np.float32)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), reference)


def test_grouped_conv_bit_exact():
    rng = np.random.default_rng(18)
    model = nn.Sequential(
        nn.Conv2d(8, 8, 3, padding=1, groups=8, rng=0),  # depthwise
        nn.Conv2d(8, 16, 3, padding=1, groups=4, rng=1),  # grouped
        nn.Flatten(),
    )
    x = rng.standard_normal((3, 8, 12, 12)).astype(np.float32)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), _module_logits(model, x))


def test_large_batch_blocked_gather_bit_exact():
    """A large batch, then another batch size on the same plan."""
    rng = np.random.default_rng(19)
    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=32, seed=0)
    x = rng.standard_normal((64, 3, 32, 32)).astype(np.float32)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), reference)
    # Re-use at another batch size: fresh out/padded buffers, the
    # same scratch arena.
    y = rng.standard_normal((37, 3, 32, 32)).astype(np.float32)
    np.testing.assert_array_equal(plan(y), _module_logits(model, y))


# ----------------------------------------------------------------------
# Threaded GEMM
# ----------------------------------------------------------------------
def test_resolve_gemm_workers_semantics():
    from repro.runtime.plan import available_workers

    assert resolve_gemm_workers(None) == 1
    assert resolve_gemm_workers(0) == 1
    assert resolve_gemm_workers(1) == 1
    assert resolve_gemm_workers(4) == 4
    assert resolve_gemm_workers("auto") == available_workers()


@pytest.mark.parametrize("bad", ["fastest", "4", -1, -2])
def test_resolve_gemm_workers_rejects_bad_values(bad):
    with pytest.raises(ConfigurationError, match="gemm_workers"):
        resolve_gemm_workers(bad)


def test_evaluator_rejects_bad_gemm_workers_at_construction():
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=32, image_size=16, seed=0, split="test"
    )
    with pytest.raises(ConfigurationError, match="gemm_workers"):
        Evaluator(DataLoader(dataset, batch_size=32), gemm_workers="fastest")


def test_threaded_gemm_bit_exact_vs_serial(monkeypatch):
    """Every threaded kernel path must match the serial schedule bitwise.

    The work threshold is forced to zero so even small layers take the
    partitioned path, and several widths are exercised (uneven row
    splits included).  Batch 37 splits the large maps into several
    gather blocks with a ragged tail, so slots reuse their arena staging
    views across blocks of different sizes.
    """
    monkeypatch.setattr(kernels_module, "GEMM_THREAD_MIN_WORK", 0)
    rng = np.random.default_rng(20)
    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=32, seed=0)
    plan = compile_model(model, (7, 3, 32, 32))
    for batch in (7, 37):
        x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        reference = _module_logits(model, x)
        plan.set_gemm_workers(None)
        np.testing.assert_array_equal(plan(x), reference)
        for workers in (2, 3, 5):
            plan.set_gemm_workers(workers)
            assert f"@{workers}" in plan.describe()
            np.testing.assert_array_equal(plan(x), reference)
    plan.set_gemm_workers(None)  # back to serial
    np.testing.assert_array_equal(plan(x), reference)


def test_threaded_direct1x1_and_grouped_bit_exact(monkeypatch):
    monkeypatch.setattr(kernels_module, "GEMM_THREAD_MIN_WORK", 0)
    rng = np.random.default_rng(21)
    model = nn.Sequential(
        nn.Conv2d(8, 16, 1, stride=2, rng=0),      # nhwc 1x1: a direct copy
        nn.Conv2d(16, 16, 3, padding=1, groups=4, rng=1),  # grouped
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(16 * 6 * 6, 10, rng=2),
    )
    x = rng.standard_normal((9, 8, 12, 12)).astype(np.float32)
    reference = _module_logits(model, x)
    plan = compile_model(model, x.shape, gemm_workers=4)
    np.testing.assert_array_equal(plan(x), reference)


def test_compile_model_accepts_gemm_workers():
    rng = np.random.default_rng(22)
    model = build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    x = rng.standard_normal((32, 3, 16, 16)).astype(np.float32)
    reference = _module_logits(model, x)
    serial = compile_model(model, x.shape)
    threaded = compile_model(model, x.shape, gemm_workers=4)
    auto = compile_model(model, x.shape, gemm_workers="auto")
    np.testing.assert_array_equal(serial(x), reference)
    np.testing.assert_array_equal(threaded(x), reference)
    np.testing.assert_array_equal(auto(x), reference)


# ----------------------------------------------------------------------
# Campaign SDC streams: threading is invisible to results
# ----------------------------------------------------------------------
def _campaign_result(module_oracle: bool = False, gemm_workers=None):
    model = quantize_module(
        build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=192, image_size=16, seed=0, split="test"
    )
    loader = DataLoader(
        dataset, batch_size=64, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
    )
    evaluate = (
        partial(evaluate_accuracy, model, loader)
        if module_oracle
        else Evaluator(loader, gemm_workers=gemm_workers).bind(model)
    )
    campaign = FaultCampaign(FaultInjector(model), evaluate, trials=3, seed=0)
    return campaign.run(BitFlipFaultModel.at_rate(1e-4))


def test_campaign_sdc_stream_identical_with_threading_forced(monkeypatch):
    """Accuracy/flip streams are bit-identical: module path, serial
    runtime, and force-threaded runtime (the 1-core determinism
    contract holds with the knob both off and on)."""
    monkeypatch.setattr(kernels_module, "GEMM_THREAD_MIN_WORK", 0)
    module_result = _campaign_result(module_oracle=True)
    serial_result = _campaign_result()
    threaded_result = _campaign_result(gemm_workers=4)
    for other in (serial_result, threaded_result):
        np.testing.assert_array_equal(module_result.accuracies, other.accuracies)
        np.testing.assert_array_equal(module_result.flip_counts, other.flip_counts)


def test_evaluator_gemm_workers_survives_pickle():
    import pickle

    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=64, image_size=16, seed=0, split="test"
    )
    evaluator = Evaluator(DataLoader(dataset, batch_size=32), gemm_workers=3)
    clone = pickle.loads(pickle.dumps(evaluator))
    assert clone.gemm_workers == 3
    assert clone._plan is None
