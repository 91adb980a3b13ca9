"""Convolution and pooling primitives (im2col based).

The forward lowers each convolution to GEMMs over a column matrix laid
out one of two ways, picked from the output map's size
(:func:`use_kmajor`):

- **K-major, per image** (maps of at least ``KMAJOR_MIN_AREA``
  positions, and every grouped conv).  :func:`im2col` copies ``kh * kw``
  planes into ``(N, C * kh * kw, OH * OW)``; a 1x1 stride-1 unpadded
  conv reads its input as is.  :func:`conv_gemm` then runs one stacked
  ``matmul`` of the weight against it, with batch dims ``(N, G)``, which
  writes NCHW directly.  Every image and group multiplies a GEMM of the
  same fixed shape, so an image's output does not depend on its batch.
- **Channels-last** (smaller maps).  The input is copied into a padded
  NHWC buffer, slabs are gathered in ``(kh, kw, c)`` column order into
  ``(N * OH * OW, kh * kw * C)``, and one position-major GEMM multiplies
  them against the weight permuted to match.

The compiled runtime's convolution kernel calls the same two functions,
so both paths hand BLAS the same operands.

The backward computes only the gradients its inputs need
(``Function.needs_input_grad``): the weight gradient reads the saved
column matrix, which a frozen weight's forward never keeps.  The K-major
input gradient is ``Wᵀ @ grad`` per image, scattered back plane by plane
by :func:`_scatter_windows`, which the pooling backwards share.  The
channels-last one comes out as one NHWC slab per kernel offset, which
:func:`_col2im_nhwc` scatter-adds into a padded NHWC buffer.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError

__all__ = [
    "as_pair",
    "avg_pool2d",
    "conv2d",
    "conv_gemm",
    "im2col",
    "max_pool2d",
    "use_kmajor",
]

IntPair = int | tuple[int, int]

#: Minimum output positions per image (``OH * OW``) for the K-major
#: layout.  On smaller maps the planes are too short to amortise the
#: per-image GEMMs, and the channels-last layout runs instead.
KMAJOR_MIN_AREA = 64

#: Names the convolution arithmetic: the two layouts, their GEMM shapes
#: and the threshold between them.  Campaign stores record it in their
#: identity and refuse to resume under another value, so one journal
#: never mixes trials computed two ways.  Change it with any change that
#: moves a conv's output bits.
NUMERICS = f"conv-kmajor-nhwc/area-{KMAJOR_MIN_AREA}"


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


def use_kmajor(area: int, groups: int) -> bool:
    """Whether a conv with ``area`` output positions per image runs K-major."""
    return groups != 1 or area >= KMAJOR_MIN_AREA


def is_pointwise(
    kernel: tuple[int, int], stride: tuple[int, int], padding: tuple[int, int]
) -> bool:
    """A 1x1, stride-1, unpadded conv: its K-major columns are its input."""
    return kernel == (1, 1) and stride == (1, 1) and padding == (0, 0)


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    kmajor: bool,
    out: np.ndarray | None = None,
    padded: np.ndarray | None = None,
) -> np.ndarray:
    """Column matrix of the NCHW input ``x``, in the layout ``kmajor`` picks.

    K-major, ``(N, C * kh * kw, OH * OW)``: row ``(c, ki, kj)`` of image
    ``n`` holds ``x_pad[n, c, oy * sh + ki, ox * sw + kj]`` at column
    ``oy * OW + ox``.  Channels-last, ``(N * OH * OW, kh * kw * C)``: the
    same values, one row per output position, columns in ``(ki, kj, c)``
    order.  A pointwise conv's K-major columns are ``x`` itself.

    A padded conv reads a zero-bordered copy of ``x`` (NCHW for K-major,
    NHWC for channels-last); ``padded`` supplies that buffer with zero
    borders (only the interior is written), by default one is allocated.
    Each kernel offset is one strided copy, so the bytes are exact.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = _out_size(h, kh, sh, ph)
    ow = _out_size(w, kw, sw, pw)
    if kmajor and is_pointwise(kernel, stride, padding):
        return x.reshape(n, c, h * w)
    if kmajor:
        shape, pad_shape = (n, c * kh * kw, oh * ow), (n, c, h + 2 * ph, w + 2 * pw)
    else:
        shape, pad_shape = (n * oh * ow, kh * kw * c), (n, h + 2 * ph, w + 2 * pw, c)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    # Both layouts seen as (N, C, kh, kw, OH, OW) and both sources as
    # NCHW: the copies below then serve either one.
    if kmajor:
        planes = out.reshape(n, c, kh, kw, oh, ow)
    else:
        planes = out.reshape(n, oh, ow, kh, kw, c).transpose(0, 5, 3, 4, 1, 2)
    src = x
    if ph or pw:
        if padded is None:
            padded = np.zeros(pad_shape, dtype=x.dtype)
        src = padded if kmajor else padded.transpose(0, 3, 1, 2)
        src[:, :, ph : ph + h, pw : pw + w] = x
    for i in range(kh):
        for j in range(kw):
            np.copyto(
                planes[:, :, i, j],
                src[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw],
            )
    return out


def conv_gemm(
    weight: np.ndarray, cols: np.ndarray, groups: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The convolution GEMM over :func:`im2col`'s columns.

    K-major columns run one stacked ``matmul`` with batch dims ``(N, G)``:
    the same ``(O/G, K/G) @ (K/G, OH * OW)`` product for every image and
    group.  It returns NCHW as ``(N, O, OH * OW)``.  Channels-last
    columns run one ``(N * OH * OW, K) @ (K, O)`` GEMM against the weight
    permuted to ``(kh, kw, c)`` column order, returning ``(N * OH * OW,
    O)``.  ``out``, when given, has the returned shape.
    """
    o = weight.shape[0]
    if cols.ndim == 3:
        n, k, p = cols.shape
        product = np.matmul(
            weight.reshape(groups, o // groups, k // groups),
            cols.reshape(n, groups, k // groups, p),
            out=None if out is None else out.reshape(n, groups, o // groups, p),
        )
        return product.reshape(n, o, p)
    w_perm = weight.transpose(0, 2, 3, 1).reshape(o, -1)
    return np.matmul(cols, w_perm.T, out=out)


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
    """col2im in NCHW: scatter-add window gradients plane by plane.

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
    depthwise convolution of the MobileNet family).  Grouped convs always
    run K-major, where the groups are a batch dim of the stacked GEMM.
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
        n = x.shape[0]
        out_channels, _, kh, kw = weight.shape
        oh = _out_size(x.shape[2], kh, stride[0], padding[0])
        ow = _out_size(x.shape[3], kw, stride[1], padding[1])
        kmajor = use_kmajor(oh * ow, groups)

        cols = im2col(x, (kh, kw), stride, padding, kmajor)
        out = conv_gemm(weight, cols, groups)
        if kmajor:
            if bias is not None:
                out += bias.reshape(-1, 1)
            out = out.reshape(n, out_channels, oh, ow)
        else:
            if bias is not None:
                out += bias
            out = np.ascontiguousarray(
                out.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)
            )

        need_x, need_weight = self.needs_input_grad[:2]
        self.has_bias = bias is not None
        self.stride, self.padding = stride, padding
        self.groups, self.kmajor = groups, kmajor
        self.in_shape = x.shape
        self.weight_shape = weight.shape
        # The column matrix only feeds the weight gradient and the
        # weight only the input gradient: keep neither unless needed.
        self.cols = cols if need_weight else None
        self.weight = weight if need_x else None
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        if self.kmajor:
            grad_x, grad_weight, grad_bias = self._backward_kmajor(grad_out)
        else:
            grad_x, grad_weight, grad_bias = self._backward_nhwc(grad_out)
        if self.has_bias:
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight

    def _backward_kmajor(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        need_x, need_weight = self.needs_input_grad[:2]
        n, out_channels, oh, ow = grad_out.shape
        _, cg, kh, kw = self.weight_shape
        groups = self.groups
        og, kg = out_channels // groups, cg * kh * kw
        grad = np.ascontiguousarray(grad_out).reshape(n, groups, og, oh * ow)
        grad_x = grad_weight = grad_bias = None
        if need_weight:
            # One GEMM per group, reducing over every image and position:
            # (G, O/G, N * P) @ (G, N * P, K/G).
            cols = self.cols.reshape(n, groups, kg, oh * ow)
            grad_weight = np.matmul(
                grad.transpose(1, 2, 0, 3).reshape(groups, og, -1),
                cols.transpose(1, 2, 0, 3).reshape(groups, kg, -1).transpose(0, 2, 1),
            ).reshape(self.weight_shape)
        if need_x:
            # Wᵀ @ grad per image, then back plane by plane.
            weight = self.weight.reshape(groups, og, kg)
            grad_cols = np.matmul(weight.transpose(0, 2, 1), grad)
            grad_x = np.ascontiguousarray(
                _scatter_windows(
                    grad_cols.reshape(n, -1, kh, kw, oh, ow),
                    self.in_shape,
                    kh,
                    kw,
                    *self.stride,
                    *self.padding,
                )
            )
        if self.has_bias and self.needs_input_grad[2]:
            grad_bias = grad_out.sum(axis=(0, 2, 3))
        return grad_x, grad_weight, grad_bias

    def _backward_nhwc(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        need_x, need_weight = self.needs_input_grad[:2]
        n, out_channels, oh, ow = grad_out.shape
        _, c, kh, kw = self.weight_shape
        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, out_channels
        )
        grad_x = grad_weight = grad_bias = None
        if need_weight:
            grad_weight = np.ascontiguousarray(
                (grad_mat.T @ self.cols)
                .reshape(out_channels, kh, kw, c)
                .transpose(0, 3, 1, 2)
            )
        if need_x:
            # The forward's permuted weight: each kernel offset's
            # gradient comes out as a channels-last slab.
            w_perm = self.weight.transpose(0, 2, 3, 1).reshape(out_channels, -1)
            windows = (grad_mat @ w_perm).reshape(n, oh, ow, kh, kw, c)
            grad_x = _col2im_nhwc(windows, self.in_shape, self.stride, self.padding)
        if self.has_bias and self.needs_input_grad[2]:
            grad_bias = grad_mat.sum(axis=0)
        return grad_x, grad_weight, grad_bias


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
