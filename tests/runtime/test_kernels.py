"""Tiered conv kernels: dispatch, per-tier bit-exactness, image blocks.

Each conv kernel picks its execution tier per call from the output
map's area (K-major ``im2col`` per image, every grouped conv
included, or channels-last ``nhwc``); every tier — and the K-major
tier's blocks of images, whatever their size — must produce float32
logits bit-identical to the eval-mode module forward.
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
from repro.eval.evaluator import Evaluator
from repro.fault.campaign import FaultCampaign
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.models.registry import MODEL_NAMES, build_model
from repro.quant import quantize_module
from repro.runtime import compile_model
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
    # Kernel buffers are keyed by per-image shape: (channels, oh, ow).
    ((_, oh, ow),) = [shape for name, shape, _ in kernel.bufs._store if name == "out"]
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
    # Batch 2 fits one K-major block; channels-last runs unblocked.
    assert "[nhwc]" in plan.describe() and "[im2col, block 2]" in plan.describe()


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
# K-major convs run one cache-sized block of images at a time
# ----------------------------------------------------------------------
# A 256 KiB budget splits every K-major case below (16x16 input maps,
# 8 channels) into blocks of 2-7 images.
_SMALL_BLOCK_BYTES = 256 << 10

_KMAJOR_CASES = {
    "padded": dict(out_channels=16, kernel_size=3, padding=1),
    "unpadded": dict(out_channels=16, kernel_size=3),
    "stride2": dict(out_channels=16, kernel_size=3, stride=2, padding=1),
    "pointwise": dict(out_channels=16, kernel_size=1),
    "grouped": dict(out_channels=16, kernel_size=3, padding=1, groups=4),
    "depthwise": dict(out_channels=8, kernel_size=3, padding=1, groups=8),
}


def _fitrelu_conv_model(case):
    """Conv -> BN (random running stats) -> neuron-wise FitReLU."""
    from repro.core.fitrelu import FitReLU

    spec = dict(_KMAJOR_CASES[case])
    out_channels = spec.pop("out_channels")
    conv = nn.Conv2d(8, out_channels, rng=0, **spec)
    bn = nn.BatchNorm2d(out_channels)
    rng = np.random.default_rng(30)
    bn.running_mean[...] = rng.standard_normal(out_channels).astype(np.float32)
    bn.running_var[...] = rng.uniform(0.5, 2.0, out_channels).astype(np.float32)
    oh = (16 + 2 * conv.padding[0] - conv.kernel_size[0]) // conv.stride[0] + 1
    bounds = rng.uniform(0.2, 1.5, (out_channels, oh, oh)).astype(np.float32)
    return quantize_module(nn.Sequential(conv, bn, FitReLU(bounds), nn.Flatten()))


@pytest.mark.parametrize("case", sorted(_KMAJOR_CASES))
def test_blocked_conv_bit_exact_at_block_boundaries(monkeypatch, case):
    """Batches of 1, block-1, block, block+1 and 2*block+3 images match
    the module forward byte for byte, clean and under injected faults."""
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", _SMALL_BLOCK_BYTES)
    model = _fitrelu_conv_model(case)
    x = np.random.default_rng(31).standard_normal((64, 8, 16, 16)).astype(np.float32)
    plan = compile_model(model, (1, 8, 16, 16))
    (kernel,) = _conv_kernels(plan)
    plan(x[:64])
    block = kernel.block
    assert kernel.tier == "im2col" and 2 <= block < 32
    assert kernel.describe().endswith(f"[im2col, block {block}]")
    injector = FaultInjector(model)
    sites = injector.sample(BitFlipFaultModel(n_flips=64), rng=5)
    perturbed = False
    for batch in (1, block - 1, block, block + 1, 2 * block + 3):
        images = x[:batch]
        clean = plan(images)
        assert clean.tobytes() == _module_logits(model, images).tobytes()
        with injector.inject(sites):
            faulty = plan(images)
            assert faulty.tobytes() == _module_logits(model, images).tobytes()
        assert kernel.block == min(batch, block)
        perturbed |= faulty.tobytes() != clean.tobytes()
    assert perturbed, "the flips must reach the output"


def test_blocked_resnet18_bit_exact_across_batches(monkeypatch):
    """ResNet-18 at batches 7 and 37 with its K-major convs split into
    blocks (a ragged last block included) equals the module forward."""
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", _SMALL_BLOCK_BYTES)
    rng = np.random.default_rng(20)
    model = build_model("resnet18", num_classes=10, scale=0.125, image_size=32, seed=0)
    plan = compile_model(model, (7, 3, 32, 32))
    for batch in (7, 37):
        x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(plan(x), _module_logits(model, x))
        blocks = {k.block for k in _conv_kernels(plan) if k.tier == "im2col"}
        assert min(blocks) < 7 and any(batch % b for b in blocks), blocks
    assert ", block " in plan.describe() and "[nhwc]" in plan.describe()


def test_blocked_pointwise_and_grouped_bit_exact(monkeypatch):
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", 0)  # one image each
    rng = np.random.default_rng(21)
    model = nn.Sequential(
        nn.Conv2d(8, 16, 1, rng=0),                # pointwise K-major
        nn.Conv2d(16, 16, 1, stride=2, rng=1),     # 6x6 map: channels-last
        nn.Conv2d(16, 16, 3, padding=1, groups=4, rng=2),  # grouped
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(16 * 6 * 6, 10, rng=3),
    )
    x = rng.standard_normal((9, 8, 12, 12)).astype(np.float32)
    plan = compile_model(model, x.shape)
    np.testing.assert_array_equal(plan(x), _module_logits(model, x))
    assert [(k.tier, k.block) for k in _conv_kernels(plan)] == [
        ("im2col", 1), ("nhwc", None), ("im2col", 1)
    ]


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_epilogue_across_the_batch_is_one_block(monkeypatch, axis):
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", 0)  # one image each
    model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=0), nn.Softmax(axis=axis))
    x = np.random.default_rng(33).standard_normal((5, 3, 8, 8)).astype(np.float32)
    plan = compile_model(model, x.shape)
    assert plan(x).tobytes() == _module_logits(model, x).tobytes()
    (kernel,) = _conv_kernels(plan)
    assert kernel.block == (5 if axis == 0 else 1)


def test_kmajor_cols_scratch_does_not_grow_with_the_batch():
    """The column scratch holds one block, whatever the batch."""
    model = nn.Sequential(
        nn.Conv2d(16, 16, 3, padding=1, rng=0), nn.ReLU(), nn.Flatten()
    )
    plan = compile_model(model, (8, 16, 32, 32))
    (kernel,) = _conv_kernels(plan)
    assert kernel.tier == "im2col" and kernel.block < 8
    at_8 = plan.memory()["scratch"]["cols"]
    assert at_8 == kernel.block * 16 * 9 * 32 * 32 * 4
    plan(np.zeros((128, 16, 32, 32), dtype=np.float32))
    assert plan.memory()["scratch"]["cols"] == at_8
    assert plan.memory()["kernels"]["padded"] == kernel.block * 16 * 34 * 34 * 4


def test_profiled_forward_takes_the_blocked_path(monkeypatch):
    """Profiling times every block (gather and GEMM accumulate across
    them) without changing a byte of the output."""
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", _SMALL_BLOCK_BYTES)
    model = _fitrelu_conv_model("padded")
    x = np.random.default_rng(32).standard_normal((11, 8, 16, 16)).astype(np.float32)
    plan = compile_model(model, x.shape)
    plain = plan(x)
    (kernel,) = _conv_kernels(plan)
    profiler = plan.attach_profiler()
    assert plan(x).tobytes() == plain.tobytes()
    blocks = -(-11 // kernel.block)
    assert blocks >= 2
    for phase in ("gather", "gemm"):
        events = [e for e in profiler.events if e.name.startswith(f"plan.{phase}.")]
        assert len(events) == blocks
    (row,) = [r for r in profiler.rows() if r["kernel"].startswith("conv")]
    assert row["gather_ms"] > 0 and row["gemm_ms"] > 0 and row["epilogue_ms"] >= 0


# ----------------------------------------------------------------------
# Campaign SDC streams: blocking is invisible to results
# ----------------------------------------------------------------------
def _campaign_result(module_oracle: bool = False):
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
        else Evaluator(loader).bind(model)
    )
    campaign = FaultCampaign(FaultInjector(model), evaluate, trials=3, seed=0)
    return campaign.run(BitFlipFaultModel.at_rate(1e-4))


def test_campaign_sdc_stream_identical_with_small_blocks(monkeypatch):
    """Accuracy/flip streams are bit-identical between the module path
    and plans whose K-major convs run in blocks of a few images."""
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", 64 << 10)
    module_result = _campaign_result(module_oracle=True)
    blocked_result = _campaign_result()
    np.testing.assert_array_equal(module_result.accuracies, blocked_result.accuracies)
    np.testing.assert_array_equal(module_result.flip_counts, blocked_result.flip_counts)


# ----------------------------------------------------------------------
# Per-image steps: an image subset gives the whole batch's rows
# ----------------------------------------------------------------------
# Replica lanes run a step that says per_image() on only the images a
# fault reached; that is exact only if those images' bits do not depend
# on the rest of the batch.
_SUBSETS = ([0], [5], [1, 4, 6], [0, 1, 2, 3, 4, 5, 7])


def _with_fitrelu(model):
    """Every ReLU swapped for a FitReLU, the protected models' epilogue."""
    from repro.core.fitrelu import FitReLU

    for path, module in list(model.named_modules()):
        if path and type(module) is nn.ReLU:
            model.set_submodule(path, FitReLU(0.8))
    return model


def _pooling_model():
    """Standalone BatchNorm, padded max/avg pools, elementwise
    activations and a global pool: the per-image steps no registry
    model compiles."""
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=0),
        nn.MaxPool2d(3, stride=2, padding=1),
        nn.BatchNorm2d(8),
        nn.AvgPool2d(3, stride=1, padding=1),
        nn.AvgPool2d(2),
        nn.Tanh(),
        nn.LeakyReLU(0.1),
        nn.Sigmoid(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 10, rng=1),
    )


def _assert_per_image_steps_exact(plan, x):
    """Each top-level step that says per_image() after a whole-batch run
    gives, on every subset, the bytes of the matching whole-batch rows.
    Returns the per-image steps' descriptions."""
    checked = []
    for step in plan.steps:
        full = step.run(x).copy()
        if step.per_image():
            for rows in _SUBSETS:
                part = step.run(np.ascontiguousarray(x[rows]))
                assert part.tobytes() == full[rows].tobytes(), (step.describe(), rows)
            checked.append(step.describe())
        x = full
    return checked


@pytest.mark.parametrize("fitrelu", [False, True], ids=["relu", "fitrelu"])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_per_image_steps_are_exact_on_image_subsets(name, fitrelu):
    model = build_model(name, num_classes=10, scale=0.125, image_size=32, seed=0)
    if fitrelu:
        model = _with_fitrelu(model)
    x = np.random.default_rng(40).standard_normal((8, 3, 32, 32)).astype(np.float32)
    plan = compile_model(model, x.shape)
    checked = _assert_per_image_steps_exact(plan, x)
    # Every model has K-major convs and a per-image step after them.
    assert any("im2col" in step for step in checked), checked


def test_per_image_pooling_and_standalone_steps_are_exact():
    model = _pooling_model()
    x = np.random.default_rng(41).standard_normal((8, 3, 16, 16)).astype(np.float32)
    plan = compile_model(model, x.shape)
    checked = _assert_per_image_steps_exact(plan, x)
    kinds = {type(step).__name__ for step in plan.steps if step.per_image()}
    assert {
        "MaxPoolKernel",
        "BatchNormKernel",
        "AvgPoolKernel",
        "ActivationKernel",
        "GlobalAvgPoolKernel",
    } <= kinds, checked


@pytest.mark.parametrize("case", sorted(_KMAJOR_CASES))
def test_per_image_blocked_fitrelu_convs_are_exact(monkeypatch, case):
    """Neuron-wise FitReLU epilogues over blocks of a few images."""
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", _SMALL_BLOCK_BYTES)
    x = np.random.default_rng(42).standard_normal((8, 8, 16, 16)).astype(np.float32)
    plan = compile_model(_fitrelu_conv_model(case), x.shape)
    assert len(_assert_per_image_steps_exact(plan, x)) == 2  # conv, flatten


def test_whole_batch_steps_do_not_claim_per_image():
    """Channels-last convs, Linear and a batch-axis softmax span the
    batch; a kernel that has not run does not know its layout."""
    from repro.runtime.kernels import ActivationKernel, LinearKernel

    assert not ConvKernel(nn.Conv2d(3, 4, 3, rng=0)).per_image()
    plan = compile_model(build_model("vgg16", num_classes=10, scale=0.125, image_size=32, seed=0), (2, 3, 32, 32))
    for step in plan.steps:
        if isinstance(step, ConvKernel):
            assert step.per_image() == (step.tier == "im2col")
        if isinstance(step, LinearKernel):
            assert not step.per_image()
    assert not ActivationKernel(nn.Softmax(axis=1)).per_image()
    softmax_conv = compile_model(
        nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=0), nn.Softmax(axis=0)), (2, 3, 8, 8)
    )
    assert not softmax_conv.steps[0].per_image()


def test_kernel_buffers_grow_only_along_the_batch_axis():
    """Smaller batches reuse the leading rows of each kernel's arrays:
    any mix of batch sizes holds one array per kernel and name."""
    model = build_model("vgg16", num_classes=10, scale=0.125, image_size=32, seed=0)
    x = np.random.default_rng(43).standard_normal((16, 3, 32, 32)).astype(np.float32)
    plan = compile_model(model, (8, 3, 32, 32))
    at_8 = plan.memory()["kernels"]
    for batch in (1, 3, 7, 8, 5):
        assert plan(x[:batch]).tobytes() == _module_logits(model, x[:batch]).tobytes()
    assert plan.memory()["kernels"] == at_8
    plan(x)
    at_16 = plan.memory()["kernels"]
    assert at_16["out"] == 2 * at_8["out"]
    assert plan(x[:3]).tobytes() == _module_logits(model, x[:3]).tobytes()
    assert plan.memory()["kernels"] == at_16
