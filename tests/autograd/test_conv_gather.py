"""The shared im2col gather and both col2im scatters are byte-identical
to direct reference formulations.

The column reference is the position-major
``ascontiguousarray(windows.transpose(...))`` matrix; each layout is a
fixed permutation of it.  The input-gradient reference is the NCHW
window-gradient scatter.  Comparisons use ``tobytes()``, so a single
differently-rounded element fails.
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
    conv_gemm,
    im2col,
    use_kmajor,
)
from repro.autograd.tensor import Tensor
from repro.nn import Conv2d
from repro.runtime import kernels as kernels_module
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


def _reference_input_grad(grad_out, weight, in_shape, stride, padding, groups=1):
    """The NCHW ``_scatter_windows`` input gradient, from the op's GEMM."""
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


def test_im2col_blocks_span_ragged_batches(monkeypatch):
    """Threaded batch blocks of 3, 2 and 2 images fill every row."""
    monkeypatch.setattr(kernels_module, "GEMM_THREAD_MIN_WORK", 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 3, 12, 12)).astype(np.float32)
    step = ConvKernel(Conv2d(3, 4, 3, padding=1, rng=0))
    step.gemm_workers = 3
    for kmajor in (True, False):
        cols = step._fill_cols(x, 12, 12, kmajor)
        expected = _reference_cols(_pad_spatial(x, 1, 1), (3, 3), (1, 1), kmajor)
        assert cols.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_runtime_fill_cols_matches_reference(monkeypatch, geometry, workers):
    monkeypatch.setattr(kernels_module, "GEMM_THREAD_MIN_WORK", 0)
    c, h, w, kernel, stride, padding = geometry
    rng = np.random.default_rng(2)
    x, oh, ow = _geometry_input(rng, geometry, np.float32, batch=5)
    conv = Conv2d(c, 4, kernel, stride=stride, padding=padding, rng=0)
    step = ConvKernel(conv)
    step.gemm_workers = workers
    padded = _pad_spatial(x, *padding)
    for kmajor in (True, False):
        cols = step._fill_cols(x, oh, ow, kmajor)
        expected = _reference_cols(padded, kernel, stride, kmajor)
        assert cols.tobytes() == expected.tobytes()


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
