"""The shared im2col gather, both col2im scatters, the blocked frozen
conv and the pooling ops are byte-identical to direct reference
formulations.

The column reference is the position-major
``ascontiguousarray(windows.transpose(...))`` matrix; each layout is a
fixed permutation of it.  The input-gradient reference is the NCHW
window-gradient scatter into a zero padded buffer, over the whole
batch's GEMM.  Max pooling's reference is the window ``argmax`` and
``take_along_axis``.  Comparisons use ``tobytes()``, so a single
differently-rounded element fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import no_grad, ops_conv
from repro.autograd.ops_conv import (
    KMAJOR_MIN_AREA,
    _out_size,
    _pad_spatial,
    _strided_windows,
    avg_pool2d,
    conv2d,
    conv_block_images,
    conv_gemm,
    im2col,
    is_pointwise,
    is_same,
    max_pool2d,
    scatter_add_windows,
    shift_add_windows,
    use_kmajor,
)
from repro.autograd.tensor import Tensor
from repro.nn import Conv2d
from repro.runtime.kernels import ConvKernel

# (in_channels, h, w, kernel, stride, padding); per-image output areas
# fall on both sides of KMAJOR_MIN_AREA.
GEOMETRIES = [
    (3, 10, 10, (3, 3), (1, 1), (0, 0)),  # 64 positions: K-major
    (4, 9, 9, (3, 3), (1, 1), (0, 0)),  # 49: channels-last
    (5, 16, 16, (3, 3), (1, 1), (1, 1)),  # 256: K-major
    (6, 15, 17, (2, 3), (1, 1), (2, 2)),  # 2x3 kernel, padding 2
    (3, 16, 16, (3, 3), (2, 2), (1, 1)),  # stride 2: 64 positions
    (4, 12, 12, (2, 3), (2, 2), (0, 1)),  # stride 2, mixed padding: 36
    (2, 33, 31, (3, 3), (2, 1), (2, 0)),  # uneven stride and padding
    # Same convs (stride 1, 2p == k - 1): K-major ones gather and
    # scatter by flat shifts.
    (3, 12, 12, (5, 5), (1, 1), (2, 2)),  # 5x5, padding 2
    (4, 10, 9, (1, 3), (1, 1), (0, 1)),  # 1x3, padding (0, 1)
    (4, 9, 10, (3, 1), (1, 1), (1, 0)),  # 3x1, padding (1, 0)
]
DTYPES = [np.float32, np.float64]


def _reference_cols(padded, kernel, stride, kmajor):
    """Position-major windows, permuted into the layout ``kmajor`` picks."""
    kh, kw = kernel
    windows = _strided_windows(padded, kh, kw, *stride)
    n, c, oh, ow = windows.shape[:4]
    if kmajor:  # (N, C, kh, kw, OH, OW)
        return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
            n, c * kh * kw, oh * ow
        )
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 4, 5, 1)).reshape(
        n * oh * ow, kh * kw * c
    )


def _reference_scatter(grad_windows, in_shape, stride, padding):
    """col2im in NCHW: each kernel offset of the (N, C, kh, kw, OH, OW)
    window gradients added, in (i, j) order, into a zero padded buffer,
    whose interior is the input gradient."""
    n, c, h, w = in_shape
    _, _, kh, kw, oh, ow = grad_windows.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_windows.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += grad_windows[
                :, :, i, j
            ]
    return np.ascontiguousarray(padded[:, :, ph : ph + h, pw : pw + w])


def _reference_input_grad(grad_out, weight, in_shape, stride, padding, groups=1):
    """The NCHW scatter input gradient, from the op's whole-batch GEMM."""
    n, out_channels, oh, ow = grad_out.shape
    _, cg, kh, kw = weight.shape
    c = in_shape[1]
    if use_kmajor(oh * ow, groups):
        og = out_channels // groups
        grad = np.ascontiguousarray(grad_out).reshape(n, groups, og, oh * ow)
        w_t = weight.reshape(groups, og, cg * kh * kw).transpose(0, 2, 1)
        grad_windows = np.matmul(w_t, grad).reshape(n, c, kh, kw, oh, ow)
    else:
        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, out_channels
        )
        w_perm = weight.transpose(0, 2, 3, 1).reshape(out_channels, -1)
        grad_windows = (grad_mat @ w_perm).reshape(n, oh, ow, kh, kw, c).transpose(
            0, 5, 3, 4, 1, 2
        )
    return _reference_scatter(grad_windows, in_shape, stride, padding)


def _geometry_input(rng, geometry, dtype, batch=3):
    c, h, w, kernel, stride, padding = geometry
    x = rng.standard_normal((batch, c, h, w)).astype(dtype)
    oh = _out_size(h, kernel[0], stride[0], padding[0])
    ow = _out_size(w, kernel[1], stride[1], padding[1])
    return x, oh, ow


def test_geometries_cover_both_gather_routes():
    areas = []
    for c, h, w, kernel, stride, padding in GEOMETRIES:
        oh = _out_size(h, kernel[0], stride[0], padding[0])
        ow = _out_size(w, kernel[1], stride[1], padding[1])
        areas.append(oh * ow)
    assert min(areas) < KMAJOR_MIN_AREA <= max(areas)
    assert KMAJOR_MIN_AREA in areas


def test_geometries_cover_both_kmajor_routes():
    """K-major geometries both gather by flat shifts (same convs) and by
    strided copies, padded and not."""
    shift, strided = [], []
    for c, h, w, kernel, stride, padding in GEOMETRIES:
        oh = _out_size(h, kernel[0], stride[0], padding[0])
        ow = _out_size(w, kernel[1], stride[1], padding[1])
        if use_kmajor(oh * ow, 1):
            (shift if is_same(kernel, stride, padding) else strided).append(padding)
    assert len(shift) >= 3 and (1, 1) in shift
    assert (0, 0) in strided and any(p != (0, 0) for p in strided)
    assert is_same((1, 1), (1, 1), (0, 0)) and not is_same((3, 3), (2, 2), (1, 1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_im2col_matches_position_major_transpose(geometry, dtype):
    """Both layouts, on every geometry, whichever one the op would pick."""
    rng = np.random.default_rng(0)
    x, oh, ow = _geometry_input(rng, geometry, dtype)
    _, _, _, kernel, stride, padding = geometry
    padded = _pad_spatial(x, *padding)
    for kmajor in (True, False):
        cols = im2col(x, kernel, stride, padding, kmajor)
        expected = _reference_cols(padded, kernel, stride, kmajor)
        assert cols.dtype == expected.dtype
        assert cols.shape == expected.shape
        assert cols.tobytes() == expected.tobytes()


def test_pointwise_kmajor_columns_are_the_input():
    x = np.random.default_rng(6).standard_normal((2, 5, 9, 9)).astype(np.float32)
    cols = im2col(x, (1, 1), (1, 1), (0, 0), kmajor=True)
    assert np.shares_memory(cols, x)
    assert cols.tobytes() == _reference_cols(x, (1, 1), (1, 1), True).tobytes()


def _reference_conv(x, weight, kernel, stride, padding):
    """The conv output from the reference columns and the op's GEMM."""
    n = x.shape[0]
    oh = _out_size(x.shape[2], kernel[0], stride[0], padding[0])
    ow = _out_size(x.shape[3], kernel[1], stride[1], padding[1])
    kmajor = use_kmajor(oh * ow, 1)
    cols = _reference_cols(_pad_spatial(x, *padding), kernel, stride, kmajor)
    out = conv_gemm(weight, cols, 1)
    if kmajor:
        return out.reshape(n, -1, oh, ow)
    return np.ascontiguousarray(out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2))


def _force_block(monkeypatch, images):
    monkeypatch.setattr(ConvKernel, "block_images", lambda self, c, area: images)


def test_im2col_blocks_span_ragged_batches(monkeypatch):
    """K-major blocks of 3, 3 and 1 images fill every output row; the
    padding copy holds one block, and a same conv (padding 1) has none."""
    _force_block(monkeypatch, 3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3, 12, 12)).astype(np.float32)
    for padding, padded in [(1, None), (2, 3 * 3 * 16 * 16 * 4)]:
        conv = Conv2d(3, 4, 3, padding=padding, bias=False, rng=0)
        step = ConvKernel(conv)
        out = step.run(x)
        assert (step.tier, step.block) == ("im2col", 3)
        assert step.bufs.sizes().get("padded") == padded
        pad = (padding, padding)
        expected = _reference_conv(x, conv.weight.data, (3, 3), (1, 1), pad)
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("images", [1, 2])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_runtime_fill_cols_matches_reference(monkeypatch, geometry, images):
    """The kernel's columns, fed to the op's GEMM, give the reference
    conv, with K-major blocks of ``images`` images (batch 5: a ragged
    last block at 2)."""
    _force_block(monkeypatch, images)
    c, h, w, kernel, stride, padding = geometry
    rng = np.random.default_rng(2)
    x, oh, ow = _geometry_input(rng, geometry, np.float32, batch=5)
    conv = Conv2d(c, 4, kernel, stride=stride, padding=padding, bias=False, rng=0)
    step = ConvKernel(conv)
    out = step.run(x)
    if use_kmajor(oh * ow, 1):
        assert (step.tier, step.block) == ("im2col", images)
    expected = _reference_conv(x, conv.weight.data, kernel, stride, padding)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_nhwc_input_grad_matches_nchw_scatter(geometry, dtype):
    c, h, w, kernel, stride, padding = geometry
    rng = np.random.default_rng(3)
    x, oh, ow = _geometry_input(rng, geometry, dtype)
    weight = rng.standard_normal((5, c, *kernel)).astype(dtype)
    grad_out = rng.standard_normal((x.shape[0], 5, oh, ow)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    conv2d(xt, Tensor(weight), stride=stride, padding=padding).backward(grad_out)
    expected = _reference_input_grad(grad_out, weight, x.shape, stride, padding)
    assert xt.grad.dtype == expected.dtype
    assert xt.grad.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("groups", [2, 4])
def test_grouped_nhwc_input_grad_matches_nchw_scatter(groups):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 9, 10)).astype(np.float32)
    weight = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
    grad_out = rng.standard_normal((2, 8, 9, 10)).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    conv2d(xt, Tensor(weight), padding=1, groups=groups).backward(grad_out)
    expected = _reference_input_grad(grad_out, weight, x.shape, (1, 1), (1, 1), groups)
    assert xt.grad.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("groups", [1, 2])
def test_conv_forward_and_weight_grad_match_transpose_im2col(groups):
    """The forward GEMM and weight gradient read the reference columns.

    7x7 outputs are channels-last at ``groups=1`` and K-major (as
    every grouped conv) at ``groups=2``.
    """
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 7, 7)).astype(np.float32)
    weight = rng.standard_normal((6, 4 // groups, 3, 3)).astype(np.float32)
    wt = Tensor(weight, requires_grad=True)
    out = conv2d(Tensor(x), wt, padding=1, groups=groups)
    grad_out = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(grad_out)

    kmajor = use_kmajor(7 * 7, groups)
    assert kmajor == (groups != 1)
    cols = _reference_cols(_pad_spatial(x, 1, 1), (3, 3), (1, 1), kmajor)
    expected_out = conv_gemm(weight, cols, groups)
    if kmajor:
        expected_out = expected_out.reshape(3, 6, 7, 7)
        grad = grad_out.reshape(3, groups, 6 // groups, 49)
        cols4 = cols.reshape(3, groups, -1, 49)
        expected_grad = np.matmul(
            grad.transpose(1, 2, 0, 3).reshape(groups, 6 // groups, -1),
            cols4.transpose(1, 2, 0, 3).reshape(groups, cols4.shape[2], -1).transpose(
                0, 2, 1
            ),
        ).reshape(weight.shape)
    else:
        expected_out = np.ascontiguousarray(
            expected_out.reshape(3, 7, 7, 6).transpose(0, 3, 1, 2)
        )
        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(-1, 6)
        expected_grad = (grad_mat.T @ cols).reshape(6, 3, 3, 4).transpose(0, 3, 1, 2)
    assert out.data.tobytes() == expected_out.tobytes()
    assert wt.grad.tobytes() == np.ascontiguousarray(expected_grad).tobytes()


# ----------------------------------------------------------------------
# A conv that keeps no column matrix runs its K-major forward, and every
# K-major input gradient, one block of images at a time
# ----------------------------------------------------------------------
def _force_op_blocks(
    monkeypatch, images, c, area, out_channels, kernel, stride, padding
):
    """Size ``ops_conv.CONV_BLOCK_BYTES`` so the conv takes ``images``
    images per block."""
    rows = 0 if is_pointwise(kernel, stride, padding) else c * kernel[0] * kernel[1]
    per_image = area * (4 * rows + ops_conv._EPILOGUE_BYTES * out_channels)
    monkeypatch.setattr(ops_conv, "CONV_BLOCK_BYTES", images * per_image)
    assert conv_block_images(c, area, out_channels, kernel, stride, padding) == images


def _reference_forward(x, weight, bias, stride, padding, groups=1):
    """Whole-batch reference columns, the op's GEMM and the bias."""
    n = x.shape[0]
    _, _, kh, kw = weight.shape
    oh = _out_size(x.shape[2], kh, stride[0], padding[0])
    ow = _out_size(x.shape[3], kw, stride[1], padding[1])
    kmajor = use_kmajor(oh * ow, groups)
    cols = _reference_cols(_pad_spatial(x, *padding), (kh, kw), stride, kmajor)
    out = conv_gemm(weight, cols, groups)
    if kmajor:
        out += bias.reshape(-1, 1)
        return out.reshape(n, -1, oh, ow)
    out += bias
    return np.ascontiguousarray(out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2))


def _frozen_conv_case(
    monkeypatch, rng, x, weight, bias, stride, padding, groups, images
):
    """Forward and input gradient of ``x`` through a frozen-weight conv in
    blocks of ``images``, against the whole-batch references."""
    n, c = x.shape[:2]
    out_channels, _, kh, kw = weight.shape
    oh = _out_size(x.shape[2], kh, stride[0], padding[0])
    ow = _out_size(x.shape[3], kw, stride[1], padding[1])
    _force_op_blocks(
        monkeypatch, images, c, oh * ow, out_channels, (kh, kw), stride, padding
    )
    xt = Tensor(x, requires_grad=True)
    out = conv2d(xt, Tensor(weight), Tensor(bias), stride, padding, groups)
    kmajor = use_kmajor(oh * ow, groups)
    assert out._fn.block == (min(images, n) if kmajor else None)
    expected = _reference_forward(x, weight, bias, stride, padding, groups)
    assert out.dtype == expected.dtype
    assert out.data.tobytes() == expected.tobytes()
    # The trainable weight keeps the whole batch's columns, in one block.
    trainable = conv2d(
        Tensor(x), Tensor(weight, requires_grad=True), Tensor(bias), stride, padding,
        groups,
    )
    assert trainable._fn.block == (n if kmajor else None)
    assert trainable.data.tobytes() == expected.tobytes()

    grad_out = rng.standard_normal(out.shape).astype(x.dtype)
    out.backward(grad_out)
    expected_grad = _reference_input_grad(
        grad_out, weight, x.shape, stride, padding, groups
    )
    assert xt.grad.dtype == expected_grad.dtype
    assert xt.grad.tobytes() == np.ascontiguousarray(expected_grad).tobytes()


@pytest.mark.parametrize("images", [1, 2])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_frozen_conv_blocks_match_whole_batch(monkeypatch, geometry, dtype, images):
    """Blocks of 1 and of 2 images over a batch of 5 (ragged), both
    layouts: forward and input gradient byte-equal to the whole batch."""
    c, h, w, kernel, stride, padding = geometry
    rng = np.random.default_rng(11)
    x, _, _ = _geometry_input(rng, geometry, dtype, batch=5)
    weight = rng.standard_normal((4, c, *kernel)).astype(dtype)
    bias = rng.standard_normal(4).astype(dtype)
    _frozen_conv_case(monkeypatch, rng, x, weight, bias, stride, padding, 1, images)


@pytest.mark.parametrize(
    "c,out_channels,groups,kernel,stride,padding",
    [
        (4, 8, 2, (3, 3), (1, 1), (1, 1)),  # grouped, 7x7: K-major anyway
        (6, 6, 6, (3, 3), (2, 2), (1, 1)),  # depthwise, stride 2
        (6, 6, 6, (3, 3), (1, 1), (1, 1)),  # depthwise
        (5, 7, 1, (1, 1), (1, 1), (0, 0)),  # pointwise: the columns are x
        (6, 4, 2, (1, 1), (1, 1), (0, 0)),  # grouped pointwise
        (5, 7, 1, (1, 1), (2, 2), (0, 0)),  # 1x1 stride 2 (a downsample)
    ],
    ids=["grouped", "depthwise-s2", "depthwise", "pointwise", "grouped-pointwise",
         "downsample"],
)
@pytest.mark.parametrize("images", [1, 3])
def test_frozen_grouped_and_pointwise_blocks(
    monkeypatch, c, out_channels, groups, kernel, stride, padding, images
):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, c, 15, 15)).astype(np.float32)
    weight = rng.standard_normal((out_channels, c // groups, *kernel))
    weight = weight.astype(np.float32)
    bias = rng.standard_normal(out_channels).astype(np.float32)
    _frozen_conv_case(
        monkeypatch, rng, x, weight, bias, stride, padding, groups, images
    )


def test_frozen_conv_under_no_grad_blocks_too(monkeypatch):
    """``no_grad`` keeps no columns either: the default block rule splits
    a batch of 40 16x16 images into ragged blocks."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 8, 16, 16)).astype(np.float32)
    weight = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
    block = conv_block_images(8, 256, 16, (3, 3), (1, 1), (1, 1))
    assert 1 < block < 40 and 40 % block
    fn = ops_conv._Conv2d()
    fn.needs_input_grad = (False, False)
    out = fn.forward(x, weight, None, (1, 1), (1, 1))
    assert fn.block == block and fn.cols is None
    expected = _reference_forward(x, weight, np.zeros(16, np.float32), (1, 1), (1, 1))
    assert out.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Same convs gather and scatter by flat shifts: the strided route (the
# shift route switched off) and the references give the same bytes
# ----------------------------------------------------------------------
with np.errstate(invalid="ignore"):
    #: The NaN the arithmetic itself makes (``inf - inf``, negative on
    #: x86).  Where two NaNs of different sign meet in one sum, numpy's
    #: strided and contiguous add loops keep different ones (the strided
    #: scatter and the padded one already disagree there), so the inputs
    #: carry only this NaN and every NaN in a result has its bits.
    DEFAULT_NAN = np.float64(np.inf) - np.float64(np.inf)


def _specials(rng, shape, dtype):
    """Normal values with NaN, ±inf and -0.0 scattered through them."""
    a = rng.standard_normal(shape).astype(dtype)
    flat = a.reshape(-1)
    picks = rng.permutation(flat.size)
    k = max(1, flat.size // 40)
    flat[picks[:k]] = DEFAULT_NAN
    flat[picks[k : 2 * k]] = np.inf
    flat[picks[2 * k : 3 * k]] = -np.inf
    flat[picks[3 * k : 6 * k]] = -0.0
    return a


def _conv_grads(x, weight, grad_out, padding, groups, frozen):
    """Forward bytes, input gradient and (unless ``frozen``) weight gradient."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(weight, requires_grad=not frozen)
    out = conv2d(xt, wt, stride=1, padding=padding, groups=groups)
    out.backward(grad_out)
    return out.data, xt.grad, None if frozen else wt.grad


def _assert_shift_matches_strided(monkeypatch, x, weight, grad_out, padding,
                                  groups=1, frozen=False):
    shifted = _conv_grads(x, weight, grad_out, padding, groups, frozen)
    with monkeypatch.context() as patch:
        patch.setattr(ops_conv, "is_same", lambda *args: False)
        strided = _conv_grads(x, weight, grad_out, padding, groups, frozen)
    for a, b in zip(shifted, strided):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    expected_grad = _reference_input_grad(
        grad_out, weight, x.shape, (1, 1), padding, groups
    )
    assert shifted[1].tobytes() == expected_grad.tobytes()


SAME = [
    (3, 12, 12, (3, 3), (1, 1)),
    (3, 12, 12, (5, 5), (2, 2)),
    (4, 10, 9, (1, 3), (0, 1)),
    (4, 9, 10, (3, 1), (1, 0)),
]


# inf and -inf products meeting in one sum make NaN.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("same", SAME)
def test_shift_route_keeps_special_value_bytes(monkeypatch, same, dtype, batch, frozen):
    """NaN, ±inf and -0.0 in the input, the weight and the output
    gradient: forward, input and weight gradients byte-equal with the
    strided route, the input gradient also with the padded scatter."""
    c, h, w, kernel, padding = same
    assert is_same(kernel, (1, 1), padding) and use_kmajor(h * w, 1)
    rng = np.random.default_rng(40)
    x = _specials(rng, (batch, c, h, w), dtype)
    weight = _specials(rng, (5, c, *kernel), dtype)
    grad_out = _specials(rng, (batch, 5, h, w), dtype)
    if frozen:  # several image blocks, the last ragged
        _force_op_blocks(monkeypatch, 2, c, h * w, 5, kernel, (1, 1), padding)
    _assert_shift_matches_strided(monkeypatch, x, weight, grad_out, padding,
                                  frozen=frozen)
    cols = im2col(x, kernel, (1, 1), padding, kmajor=True)
    expected = _reference_cols(_pad_spatial(x, *padding), kernel, (1, 1), True)
    assert cols.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
def test_shift_route_mixed_nans_agree_but_for_which_nan(monkeypatch, dtype):
    """Where a positive NaN and the default (negative) one meet in one
    sum, IEEE 754 leaves open which comes out, and numpy's add loops
    pick by position: the routes then agree on every non-NaN byte and on
    where the NaNs are, not on their sign."""
    rng = np.random.default_rng(43)
    x = _specials(rng, (3, 3, 12, 12), dtype)
    x.reshape(-1)[::37] = np.nan
    weight = _specials(rng, (5, 3, 3, 3), dtype)
    grad_out = _specials(rng, (3, 5, 12, 12), dtype)
    grad_out.reshape(-1)[5::41] = np.nan
    shifted = _conv_grads(x, weight, grad_out, (1, 1), 1, False)
    with monkeypatch.context() as patch:
        patch.setattr(ops_conv, "is_same", lambda *args: False)
        strided = _conv_grads(x, weight, grad_out, (1, 1), 1, False)
    for a, b in zip(shifted, strided):
        nan = np.isnan(a)
        assert nan.any() and (nan == np.isnan(b)).all()
        assert a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("side", [1, 2])
def test_depthwise_same_conv_on_maps_smaller_than_its_padding(monkeypatch, side):
    """A depthwise 3x3 on a 1x1 or 2x2 map (K-major as every grouped
    conv): most shifts fall wholly off the map."""
    rng = np.random.default_rng(41)
    x = _specials(rng, (3, 4, side, side), np.float32)
    weight = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    grad_out = rng.standard_normal((3, 4, side, side)).astype(np.float32)
    _assert_shift_matches_strided(monkeypatch, x, weight, grad_out, (1, 1), groups=4)
    cols = im2col(x, (3, 3), (1, 1), (1, 1), kmajor=True)
    expected = _reference_cols(_pad_spatial(x, 1, 1), (3, 3), (1, 1), True)
    assert cols.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("same", SAME)
def test_shift_add_windows_matches_strided_scatter(same, dtype):
    """Window gradients holding NaN, ±inf and -0.0 (everywhere, the
    off-map positions included): one shifted add per offset over the
    margined buffer gives the strided scatter's bytes, and the margins
    carry only +0.0."""
    c, h, w, kernel, padding = same
    rng = np.random.default_rng(42)
    windows = _specials(rng, (2, c, *kernel, h, w), dtype)
    expected = np.zeros((2, c, h, w), dtype)
    scatter_add_windows(expected, windows.copy(), (1, 1), padding)
    margin = padding[0] * w + padding[1]
    flat = np.zeros(expected.size + 2 * margin, dtype)
    shift_add_windows(flat, windows, padding)
    assert flat[margin : margin + expected.size].tobytes() == expected.tobytes()
    edges = np.concatenate([flat[:margin], flat[margin + expected.size :]])
    assert edges.tobytes() == np.zeros(2 * margin, dtype).tobytes()


# ----------------------------------------------------------------------
# Pooling: max pooling against argmax / take_along_axis, average pooling
# against the padded scatter
# ----------------------------------------------------------------------
POOLS = [
    ((2, 2), (2, 2), (0, 0)),  # the zoo's pool: non-overlapping
    ((3, 3), (2, 2), (1, 1)),  # overlapping and padded
    ((3, 2), (1, 1), (0, 1)),  # overlapping, stride 1
    ((2, 2), (1, 1), (1, 1)),  # padded, stride 1
]


def _reference_max_pool(x, kernel, stride, padding):
    """The window argmax and the element it picks."""
    kh, kw = kernel
    windows = _strided_windows(_pad_spatial(x, *padding, fill=-np.inf), kh, kw, *stride)
    n, c, oh, ow = windows.shape[:4]
    flat = np.ascontiguousarray(windows).reshape(n, c, oh, ow, kh * kw)
    argmax = flat.argmax(axis=-1)
    return np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0], argmax


def _reference_max_pool_grad(grad_out, argmax, in_shape, kernel, stride, padding):
    """``grad_out`` put at each window's argmax, then the padded scatter."""
    kh, kw = kernel
    n, c, oh, ow = grad_out.shape
    flat = np.zeros((n, c, oh, ow, kh * kw), dtype=grad_out.dtype)
    np.put_along_axis(flat, argmax[..., None], grad_out[..., None], axis=-1)
    windows = flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
    return _reference_scatter(windows, in_shape, stride, padding)


def _pool_input(rng, dtype, shape=(3, 4, 9, 8)):
    """Small integers (many ties) with NaN, ±inf and signed zeros."""
    x = rng.integers(-2, 3, size=shape).astype(dtype)
    flat = x.reshape(-1)
    picks = rng.permutation(flat.size)
    flat[picks[:4]] = np.nan
    flat[picks[4:10]] = np.inf
    flat[picks[10:16]] = -np.inf
    flat[picks[16 : flat.size // 4]] = -0.0
    return x


# inf and -inf gradients meeting in overlapping windows sum to NaN.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool", POOLS)
def test_max_pool_matches_argmax_reference(pool, dtype):
    """Ties, NaN and ±inf inputs; NaN, ±inf and -0.0 gradients."""
    kernel, stride, padding = pool
    rng = np.random.default_rng(14)
    x = _pool_input(rng, dtype)
    xt = Tensor(x, requires_grad=True)
    out = max_pool2d(xt, kernel, stride, padding)
    expected, argmax = _reference_max_pool(x, kernel, stride, padding)
    # The maximum itself is exact; only a tie of +0.0 and -0.0 may pick
    # either zero, so the values compare equal, NaN for NaN.
    np.testing.assert_array_equal(out.data, expected)
    assert out._fn.index.tobytes() == argmax.astype(out._fn.index.dtype).tobytes()

    grad_out = rng.standard_normal(out.shape).astype(dtype)
    grad_out.reshape(-1)[:: 7] = -0.0
    grad_out.reshape(-1)[3 :: 11] = np.nan
    grad_out.reshape(-1)[5 :: 13] = np.inf
    grad_out.reshape(-1)[6 :: 17] = -np.inf
    out.backward(grad_out)
    expected_grad = _reference_max_pool_grad(
        grad_out, argmax, x.shape, kernel, stride, padding
    )
    assert xt.grad.dtype == expected_grad.dtype
    assert xt.grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "kernel,shape",
    [
        ((2, 2), (3, 4, 8, 8)),  # the zoo's pool, every row covered
        ((2, 2), (3, 4, 9, 7)),  # odd sizes: a trailing row and column
        ((2, 3), (2, 3, 7, 11)),  # rectangular windows, both ragged
        ((3, 3), (2, 2, 9, 9)),
    ],
)
def test_non_overlapping_max_pool_backward_writes_once(monkeypatch, kernel, shape, dtype):
    """``stride == kernel`` and no padding: the backward writes each input
    position once, with the routed scatter's bytes (first-max ties,
    -0.0 gradients as +0.0, NaN kept), and zeros past the last window."""
    rng = np.random.default_rng(18)
    x = _pool_input(rng, dtype, shape)
    xt = Tensor(x, requires_grad=True)
    out = max_pool2d(xt, kernel)
    expected_out, argmax = _reference_max_pool(x, kernel, kernel, (0, 0))
    np.testing.assert_array_equal(out.data, expected_out)
    grad_out = rng.standard_normal(out.shape).astype(dtype)
    grad_out.reshape(-1)[::5] = -0.0
    grad_out.reshape(-1)[2::9] = np.nan
    grad_out.reshape(-1)[4::11] = -np.nan
    grad_out.reshape(-1)[6::13] = -np.inf

    def no_scatter(*args):
        raise AssertionError("a non-overlapping pool scattered")

    monkeypatch.setattr(ops_conv, "scatter_add_windows", no_scatter)
    out.backward(grad_out)
    monkeypatch.undo()
    expected = _reference_max_pool_grad(grad_out, argmax, x.shape, kernel, kernel, (0, 0))
    assert xt.grad.dtype == expected.dtype
    assert xt.grad.tobytes() == expected.tobytes()
    # The routed scatter the overlapping pools keep, over zeros.
    kh, kw = kernel
    n, c, oh, ow = grad_out.shape
    flat = np.zeros((n, c, oh, ow, kh * kw), dtype)
    np.put_along_axis(flat, argmax[..., None], grad_out[..., None], axis=-1)
    routed = np.zeros(x.shape, dtype)
    scatter_add_windows(
        routed, flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3),
        kernel, (0, 0),
    )
    assert xt.grad.tobytes() == routed.tobytes()
    # -0.0 gradients came out +0.0; both NaN signs came through.
    assert not (np.signbit(xt.grad) & (xt.grad == 0)).any()
    assert np.signbit(xt.grad[np.isnan(xt.grad)]).any()
    assert not np.signbit(xt.grad[np.isnan(xt.grad)]).all()


@pytest.mark.parametrize("pool", POOLS)
def test_max_pool_without_signed_zero_ties_matches_bytes(pool):
    kernel, stride, padding = pool
    x = np.random.default_rng(15).standard_normal((2, 3, 9, 10)).astype(np.float32)
    out = max_pool2d(Tensor(x, requires_grad=True), kernel, stride, padding)
    expected, _ = _reference_max_pool(x, kernel, stride, padding)
    assert out.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pool", POOLS)
def test_max_pool_forward_is_the_runtime_kernel(pool):
    """Without a gradient no index is kept, and the op's forward is the
    compiled max-pool step's, byte for byte."""
    from repro.nn import MaxPool2d
    from repro.runtime.kernels import MaxPoolKernel

    kernel, stride, padding = pool
    x = _pool_input(np.random.default_rng(16), np.float32)
    with no_grad():
        out = max_pool2d(Tensor(x, requires_grad=True), kernel, stride, padding)
    step = MaxPoolKernel(MaxPool2d(kernel, stride, padding))
    assert out.data.tobytes() == step.run(x).tobytes()
    fn = ops_conv._MaxPool2d()
    fn.needs_input_grad = (False,)
    fn.forward(x, kernel, stride, padding)
    assert fn.index is None


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool", POOLS)
def test_avg_pool_grad_matches_padded_scatter(pool, dtype):
    kernel, stride, padding = pool
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 4, 9, 8)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    out = avg_pool2d(xt, kernel, stride, padding)
    grad_out = rng.standard_normal(out.shape).astype(dtype)
    out.backward(grad_out)
    share = grad_out / float(kernel[0] * kernel[1])
    n, c, oh, ow = share.shape
    windows = np.broadcast_to(share[:, :, None, None], (n, c, *kernel, oh, ow))
    expected = _reference_scatter(windows, x.shape, stride, padding)
    assert xt.grad.tobytes() == expected.tobytes()
