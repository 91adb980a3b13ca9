"""Convolution and pooling primitives (im2col based).

The forward lowers each convolution to one large matrix multiply — the
standard im2col trick — which is the only way to get competitive
throughput from numpy.  :func:`im2col` builds the position-major column
matrix through cache-sized K-major staging blocks; the compiled runtime's
convolution kernel calls the same gather, so both paths hand BLAS the
same column bytes.

The backward computes only the gradients its inputs need
(``Function.needs_input_grad``): the weight gradient reads the saved
column matrix, which a frozen weight's forward never keeps.  The input
gradient multiplies the output gradient by the weight with its columns
reordered to (ki, kj, channel), so each kernel offset's gradient is a
channels-last slab; :func:`_col2im_nhwc` scatter-adds those slabs into a
padded NHWC buffer and transposes once to NCHW.  Pooling backwards
scatter their window gradients with :func:`_scatter_windows`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError

__all__ = ["as_pair", "avg_pool2d", "conv2d", "im2col", "max_pool2d"]

IntPair = int | tuple[int, int]

#: Byte budget for one batch block's K-major staging buffer in the
#: blocked im2col gather — sized so a block transposes L2/L3-resident
#: instead of round-tripping main memory.
GEMM_BLOCK_BYTES = 1 << 20

#: Minimum spatial positions per image for the blocked K-major gather;
#: below this the position-major copy is already cheap (short planes,
#: python loop overhead dominates) and :func:`im2col` uses it directly.
KMAJOR_MIN_AREA = 64


def as_pair(value: IntPair, name: str) -> tuple[int, int]:
    """Normalise an int-or-pair geometry argument to a 2-tuple of ints."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ShapeError(f"{name} must be an int or 2-tuple, got {value!r}")
    return pair


# Internal alias kept for the call sites below.
_pair = as_pair


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output size {out} for input {size}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out


def _pad_spatial(x: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)


def _strided_windows(
    x: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """View of shape (N, C, OH, OW, kh, kw) over a padded NCHW array."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw]


def im2col_blocks(
    n: int, k: int, per_image: int, itemsize: int
) -> list[tuple[int, int]]:
    """Batch ranges of the blocked gather, each within ``GEMM_BLOCK_BYTES``."""
    block = max(1, min(n, GEMM_BLOCK_BYTES // max(1, k * per_image * itemsize)))
    return [(b0, min(b0 + block, n)) for b0 in range(0, n, block)]


def gather_block(
    cols: np.ndarray,
    staging: np.ndarray,
    padded: np.ndarray,
    b0: int,
    b1: int,
    stride: tuple[int, int],
) -> None:
    """Fill the column-matrix rows of images ``b0:b1`` via K-major staging.

    ``staging`` has shape (C, kh, kw, b1 - b0, OH, OW): ``staging[c, i,
    j]`` receives column ``(c, i, j)`` of the im2col matrix for the
    block — one contiguous destination plane per copy, which is what
    makes this gather several times faster than the position-major
    transpose.  The block is then transposed, still cache-resident, into
    rows ``b0 * OH * OW : b1 * OH * OW`` of the position-major ``cols``
    (shape (N * OH * OW, C * kh * kw)).
    """
    c, kh, kw, _, oh, ow = staging.shape
    sh, sw = stride
    block = padded[b0:b1]
    for i in range(kh):
        for j in range(kw):
            np.copyto(
                staging[:, i, j],
                block[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw].transpose(
                    1, 0, 2, 3
                ),
            )
    per_image = oh * ow
    np.copyto(
        cols[b0 * per_image : b1 * per_image],
        staging.reshape(c * kh * kw, (b1 - b0) * per_image).T,
    )


def im2col(
    padded: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    oh: int,
    ow: int,
    out: np.ndarray | None = None,
    staging: Callable[[tuple[int, ...]], np.ndarray] | None = None,
) -> np.ndarray:
    """Position-major column matrix (N * OH * OW, C * kh * kw) of ``padded``.

    Column ``(c, ki, kj)`` of row ``(n, oy, ox)`` holds
    ``padded[n, c, oy * sh + ki, ox * sw + kj]``.  Feature maps of at
    least ``KMAJOR_MIN_AREA`` positions per image go through
    :func:`gather_block`; smaller ones copy the window view directly.
    Both are pure copies, so the bytes never depend on the route.
    ``staging(shape)`` supplies the staging buffers (one per distinct
    block shape, reused across blocks); the default allocates them.
    """
    n, c = padded.shape[:2]
    kh, kw = kernel
    k = c * kh * kw
    per_image = oh * ow
    if out is None:
        out = np.empty((n * per_image, k), dtype=padded.dtype)
    if per_image < KMAJOR_MIN_AREA:
        windows = _strided_windows(padded, kh, kw, *stride)
        np.copyto(
            out.reshape(n, oh, ow, c, kh, kw), windows.transpose(0, 2, 3, 1, 4, 5)
        )
        return out
    buffers: dict[tuple[int, ...], np.ndarray] = {}
    for b0, b1 in im2col_blocks(n, k, per_image, padded.dtype.itemsize):
        shape = (c, kh, kw, b1 - b0, oh, ow)
        buf = buffers.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=padded.dtype) if staging is None else staging(shape)
            buffers[shape] = buf
        gather_block(out, buf, padded, b0, b1, stride)
    return out


def _col2im_nhwc(
    windows: np.ndarray,
    in_shape: tuple[int, int, int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """col2im: scatter-add channels-last window gradients into NCHW.

    ``windows`` has shape (N, OH, OW, kh, kw, C).  Each kernel offset is
    added separately, in (i, j) order, into a padded NHWC buffer —
    overlapping windows (stride < kernel) accumulate in the same order
    as :func:`_scatter_windows` — and the interior is transposed to
    NCHW once at the end.
    """
    n, c, h, w = in_shape
    _, oh, ow, kh, kw, _ = windows.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=windows.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += windows[
                :, :, :, i, j
            ]
    return np.ascontiguousarray(
        padded[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)
    )


def _scatter_windows(
    grad_windows: np.ndarray,
    in_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
) -> np.ndarray:
    """col2im for pooling: scatter-add window gradients into NCHW.

    ``grad_windows`` has shape (N, C, kh, kw, OH, OW).  Overlapping windows
    (stride < kernel) accumulate correctly because each kernel offset is
    added separately.
    """
    n, c, h, w = in_shape
    oh, ow = grad_windows.shape[-2:]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_windows.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += grad_windows[
                :, :, i, j
            ]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


class _Conv2d(Function):
    """2-D cross-correlation (the deep-learning "convolution").

    Supports grouped convolution: with G groups the input channels split
    into G blocks of C/G, the O filters into G blocks of O/G, and block g
    of the output sees only block g of the input (``groups == C`` is the
    depthwise convolution of the MobileNet family).  ``groups == 1`` runs
    the plain single-GEMM path; grouped shapes use one batched einsum.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: tuple[int, int],
        padding: tuple[int, int],
        groups: int = 1,
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects NCHW input, got {x.ndim}-D")
        if weight.ndim != 4:
            raise ShapeError(f"conv2d expects OIHW weight, got {weight.ndim}-D")
        if groups < 1:
            raise ShapeError(f"groups must be >= 1, got {groups}")
        if x.shape[1] != weight.shape[1] * groups:
            raise ShapeError(
                f"input channels {x.shape[1]} != weight in-channels "
                f"{weight.shape[1]} x groups {groups}"
            )
        if weight.shape[0] % groups:
            raise ShapeError(
                f"out-channels {weight.shape[0]} not divisible by groups {groups}"
            )
        n, c, h, w = x.shape
        out_channels, _, kh, kw = weight.shape
        sh, sw = stride
        ph, pw = padding
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)

        cols = im2col(_pad_spatial(x, ph, pw), (kh, kw), stride, oh, ow)
        if groups == 1:
            out = cols @ weight.reshape(out_channels, -1).T
        else:
            cg = c // groups
            og = out_channels // groups
            # Channel blocks stay contiguous in the (P, G, Cg*kh*kw) view
            # because C = G*Cg in group order.
            out = np.einsum(
                "pgk,gok->pgo",
                cols.reshape(n * oh * ow, groups, cg * kh * kw),
                weight.reshape(groups, og, cg * kh * kw),
            ).reshape(n * oh * ow, out_channels)
        if bias is not None:
            out += bias
        out = out.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)

        need_x, need_weight = self.needs_input_grad[:2]
        self.has_bias = bias is not None
        self.stride, self.padding = stride, padding
        self.groups = groups
        self.in_shape = x.shape
        self.weight_shape = weight.shape
        # The column matrix only feeds the weight gradient and the
        # weight only the input gradient: keep neither unless needed.
        self.cols = cols if need_weight else None
        self.weight = weight if need_x else None
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        cols, weight = self.cols, self.weight
        need_x, need_weight = self.needs_input_grad[:2]
        n, _, oh, ow = grad_out.shape
        out_channels, cg, kh, kw = self.weight_shape
        c = self.in_shape[1]
        groups = self.groups

        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, out_channels
        )
        grad_x = grad_weight = grad_bias = None
        if groups == 1:
            if need_weight:
                grad_weight = grad_mat.T @ cols
            if need_x:
                # Weight columns reordered to (ki, kj, c): the same GEMM
                # shape and reduction as grad_mat @ w_mat, but each
                # offset's gradient comes out as a channels-last slab.
                w_perm = np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(
                    out_channels, -1
                )
                windows = (grad_mat @ w_perm).reshape(n, oh, ow, kh, kw, c)
        else:
            og = out_channels // groups
            grad3 = grad_mat.reshape(n * oh * ow, groups, og)
            if need_weight:
                grad_weight = np.einsum(
                    "pgo,pgk->gok", grad3, cols.reshape(n * oh * ow, groups, -1)
                )
            if need_x:
                grad_cols = np.einsum(
                    "pgo,gok->pgk", grad3, weight.reshape(groups, og, cg * kh * kw)
                )
                windows = grad_cols.reshape(n, oh, ow, c, kh, kw).transpose(
                    0, 1, 2, 4, 5, 3
                )
        if need_x:
            grad_x = _col2im_nhwc(windows, self.in_shape, self.stride, self.padding)
        if grad_weight is not None:
            grad_weight = grad_weight.reshape(self.weight_shape)
        if self.has_bias:
            if self.needs_input_grad[2]:
                grad_bias = grad_mat.sum(axis=0)
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight


class _MaxPool2d(Function):
    def forward(
        self,
        x: np.ndarray,
        kernel: tuple[int, int],
        stride: tuple[int, int],
        padding: tuple[int, int],
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"max_pool2d expects NCHW input, got {x.ndim}-D")
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        n, c, h, w = x.shape
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        padded = _pad_spatial(x, ph, pw, fill=-np.inf)
        windows = _strided_windows(padded, kh, kw, sh, sw)
        flat = np.ascontiguousarray(windows).reshape(n, c, oh, ow, kh * kw)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        self.save_for_backward(argmax)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (argmax,) = self.saved
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, oh, ow = grad_out.shape
        flat = np.zeros((n, c, oh, ow, kh * kw), dtype=grad_out.dtype)
        np.put_along_axis(flat, argmax[..., None], grad_out[..., None], axis=-1)
        grad_windows = flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
        grad_x = _scatter_windows(
            np.ascontiguousarray(grad_windows), self.in_shape, kh, kw, sh, sw, ph, pw
        )
        return (grad_x,)


class _AvgPool2d(Function):
    def forward(
        self,
        x: np.ndarray,
        kernel: tuple[int, int],
        stride: tuple[int, int],
        padding: tuple[int, int],
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"avg_pool2d expects NCHW input, got {x.ndim}-D")
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        n, c, h, w = x.shape
        _out_size(h, kh, sh, ph)
        _out_size(w, kw, sw, pw)
        padded = _pad_spatial(x, ph, pw)
        windows = _strided_windows(padded, kh, kw, sh, sw)
        out = windows.mean(axis=(-2, -1))

        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, oh, ow = grad_out.shape
        share = grad_out / float(kh * kw)
        grad_windows = np.broadcast_to(
            share[:, :, None, None, :, :], (n, c, kh, kw, oh, ow)
        )
        grad_x = _scatter_windows(
            np.ascontiguousarray(grad_windows), self.in_shape, kh, kw, sh, sw, ph, pw
        )
        return (grad_x,)


def conv2d(
    x: Any,
    weight: Any,
    bias: Any = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over an NCHW tensor with an OIHW weight.

    ``groups > 1`` runs a grouped convolution (weight in-channels are
    per-group: shape ``(O, C/groups, kh, kw)``); ``groups == C`` is the
    depthwise convolution.
    """
    stride = _pair(stride, "stride")
    padding = _pair(padding, "padding")
    if bias is None:
        return _Conv2d.apply(
            as_tensor(x), as_tensor(weight), None, stride, padding, int(groups)
        )
    return _Conv2d.apply(
        as_tensor(x), as_tensor(weight), as_tensor(bias), stride, padding, int(groups)
    )


def max_pool2d(
    x: Any, kernel: IntPair, stride: IntPair | None = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling; ``stride`` defaults to the kernel size."""
    kernel = _pair(kernel, "kernel")
    stride = kernel if stride is None else _pair(stride, "stride")
    padding = _pair(padding, "padding")
    return _MaxPool2d.apply(as_tensor(x), kernel, stride, padding)


def avg_pool2d(
    x: Any, kernel: IntPair, stride: IntPair | None = None, padding: IntPair = 0
) -> Tensor:
    """Average pooling; ``stride`` defaults to the kernel size.

    Padding zeros are included in the divisor (PyTorch's
    ``count_include_pad=True`` default).
    """
    kernel = _pair(kernel, "kernel")
    stride = kernel if stride is None else _pair(stride, "stride")
    padding = _pair(padding, "padding")
    return _AvgPool2d.apply(as_tensor(x), kernel, stride, padding)
