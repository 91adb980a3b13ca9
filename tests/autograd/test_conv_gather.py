"""The shared im2col gather and the NHWC col2im are byte-identical to
the formulations they replaced.

Each reference below is the previous implementation, kept verbatim:
the position-major ``ascontiguousarray(windows.transpose(...))`` column
matrix and the NCHW window-gradient scatter.  Comparisons use
``tobytes()``, so a single differently-rounded element fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.ops_conv import (
    KMAJOR_MIN_AREA,
    _out_size,
    _pad_spatial,
    _scatter_windows,
    _strided_windows,
    conv2d,
    im2col,
)
from repro.autograd.tensor import Tensor
from repro.nn import Conv2d
from repro.runtime.kernels import ConvKernel

# (in_channels, h, w, kernel, stride, padding); per-image output areas
# fall on both sides of KMAJOR_MIN_AREA.
GEOMETRIES = [
    (3, 10, 10, (3, 3), (1, 1), (0, 0)),  # 64 positions: blocked gather
    (4, 9, 9, (3, 3), (1, 1), (0, 0)),  # 49: direct copy
    (5, 16, 16, (3, 3), (1, 1), (1, 1)),  # 256: blocked
    (6, 15, 17, (2, 3), (1, 1), (2, 2)),  # 2x3 kernel, padding 2
    (3, 16, 16, (3, 3), (2, 2), (1, 1)),  # stride 2: 64 positions
    (4, 12, 12, (2, 3), (2, 2), (0, 1)),  # stride 2, mixed padding: 36
    (2, 33, 31, (3, 3), (2, 1), (2, 0)),  # uneven stride and padding
]
DTYPES = [np.float32, np.float64]


def _reference_cols(padded, kernel, stride):
    kh, kw = kernel
    windows = _strided_windows(padded, kh, kw, *stride)
    n, c, oh, ow = windows.shape[:4]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * oh * ow, c * kh * kw
    )


def _reference_input_grad(grad_out, weight, in_shape, stride, padding, groups=1):
    """The NCHW ``_scatter_windows`` input gradient of the conv op."""
    n, _, oh, ow = grad_out.shape
    out_channels, cg, kh, kw = weight.shape
    c = in_shape[1]
    grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
        n * oh * ow, out_channels
    )
    if groups == 1:
        grad_cols = grad_mat @ weight.reshape(out_channels, -1)
    else:
        og = out_channels // groups
        grad_cols = np.einsum(
            "pgo,gok->pgk",
            grad_mat.reshape(n * oh * ow, groups, og),
            weight.reshape(groups, og, cg * kh * kw),
        ).reshape(n * oh * ow, c * kh * kw)
    grad_windows = grad_cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    return _scatter_windows(
        np.ascontiguousarray(grad_windows), in_shape, kh, kw, *stride, *padding
    )


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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_im2col_matches_position_major_transpose(geometry, dtype):
    rng = np.random.default_rng(0)
    x, oh, ow = _geometry_input(rng, geometry, dtype)
    _, _, _, kernel, stride, padding = geometry
    padded = _pad_spatial(x, *padding)
    cols = im2col(padded, kernel, stride, oh, ow)
    expected = _reference_cols(padded, kernel, stride)
    assert cols.dtype == expected.dtype
    assert cols.shape == expected.shape
    assert cols.tobytes() == expected.tobytes()


def test_im2col_blocks_span_ragged_batches(monkeypatch):
    """Many small blocks plus a ragged tail still fill every row."""
    from repro.autograd import ops_conv

    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3, 12, 12)).astype(np.float32)
    # Budget of ~2 images per block: blocks of 2, 2, 2 and a tail of 1.
    monkeypatch.setattr(ops_conv, "GEMM_BLOCK_BYTES", 2 * 27 * 100 * 4)
    assert ops_conv.im2col_blocks(7, 27, 100, 4)[-1] == (6, 7)
    cols = im2col(x, (3, 3), (1, 1), 10, 10)
    assert cols.tobytes() == _reference_cols(x, (3, 3), (1, 1)).tobytes()


@pytest.mark.parametrize("channels,size", [(4, 32), (4, 16), (2, 8)])
def test_staging_rows_are_padded_off_the_page_stride(channels, size):
    """Unpadded, a staging row of B * OH * OW floats is a multiple of
    4 KiB in these geometries, so the transpose would read all K rows
    from one cache set.  The padded buffer must gather the same bytes."""
    from repro.autograd import ops_conv

    rng = np.random.default_rng(3)
    x = rng.standard_normal((128, channels, size + 2, size + 2)).astype(np.float32)
    k, per_image = channels * 9, size * size
    shape = ops_conv.staging_shape(128, k, per_image, 4)
    b0, b1 = ops_conv.im2col_blocks(128, k, per_image, 4)[0]
    assert (b1 - b0) * per_image * 4 % 4096 == 0
    assert shape == (k, (b1 - b0) * per_image + ops_conv.STAGING_ROW_PAD)
    assert (shape[1] * 4) % 4096 != 0
    staging = np.full(shape, np.nan, np.float32)
    cols = im2col(x, (3, 3), (1, 1), size, size, staging=staging)
    assert cols.tobytes() == _reference_cols(x, (3, 3), (1, 1)).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_runtime_fill_cols_matches_reference(geometry, workers):
    c, h, w, kernel, stride, padding = geometry
    rng = np.random.default_rng(2)
    x, oh, ow = _geometry_input(rng, geometry, np.float32, batch=5)
    conv = Conv2d(c, 4, kernel, stride=stride, padding=padding, rng=0)
    kernel_step = ConvKernel(conv)
    padded = _pad_spatial(x, *padding)
    cols = np.full((5 * oh * ow, c * kernel[0] * kernel[1]), np.nan, np.float32)
    kernel_step._fill_cols(cols, padded, oh, ow, workers)
    assert cols.tobytes() == _reference_cols(padded, kernel, stride).tobytes()


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
    """The forward GEMM and weight gradient read the same column bytes."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 11, 11)).astype(np.float32)
    weight = rng.standard_normal((6, 4 // groups, 3, 3)).astype(np.float32)
    wt = Tensor(weight, requires_grad=True)
    out = conv2d(Tensor(x), wt, padding=1, groups=groups)
    grad_out = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(grad_out)

    cols = _reference_cols(_pad_spatial(x, 1, 1), (3, 3), (1, 1))
    grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(-1, 6)
    if groups == 1:
        expected_out = cols @ weight.reshape(6, -1).T
        expected_grad = (grad_mat.T @ cols).reshape(weight.shape)
    else:
        cols3 = cols.reshape(-1, groups, 2 * 9)
        expected_out = np.einsum(
            "pgk,gok->pgo", cols3, weight.reshape(groups, 3, 2 * 9)
        ).reshape(-1, 6)
        expected_grad = np.einsum(
            "pgo,pgk->gok", grad_mat.reshape(-1, groups, 3), cols3
        ).reshape(weight.shape)
    expected_out = np.ascontiguousarray(
        expected_out.reshape(3, 11, 11, 6).transpose(0, 3, 1, 2)
    )
    assert out.data.tobytes() == expected_out.tobytes()
    assert wt.grad.tobytes() == expected_grad.tobytes()
