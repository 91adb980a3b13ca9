"""Convolution and pooling primitives (im2col based).

The forward lowers each convolution to GEMMs over a column matrix laid
out one of two ways, picked from the output map's size
(:func:`use_kmajor`):

- **K-major, per image** (maps of at least ``KMAJOR_MIN_AREA``
  positions, and every grouped conv).  :func:`im2col` copies ``kh * kw``
  planes into ``(N, C * kh * kw, OH * OW)``; a 1x1 stride-1 unpadded
  conv reads its input as is.  A stride-1 "same" conv (``2 * p == k -
  1``, :func:`is_same`: every 3x3 padding-1 conv of the zoo) copies
  each plane as one flat shift of the input, ``H * W`` floats long, and
  zeroes what fell off the map; other convs copy strided windows, ``OW``
  floats at a time, out of a zero-bordered copy.  :func:`conv_gemm`
  then runs one stacked ``matmul`` of the weight against it, with batch
  dims ``(N, G)``, which writes NCHW directly.  Every image and group multiplies a GEMM of the
  same fixed shape, so an image's output does not depend on its batch.
  That lets a conv that keeps no column matrix (a frozen weight, or
  ``no_grad``) gather and multiply one block of images at a time, as
  many as fit :data:`CONV_BLOCK_BYTES` (:func:`conv_block_images`), with
  the same bytes as one whole-batch pass.
- **Channels-last** (smaller maps).  The input is copied into a padded
  NHWC buffer, slabs are gathered in ``(kh, kw, c)`` column order into
  ``(N * OH * OW, kh * kw * C)``, and one position-major GEMM multiplies
  them against the weight permuted to match.  It always runs over the
  whole batch: split, the position-major GEMM would round differently.

The compiled runtime's convolution kernel calls the same two functions
and the same block rule, so both paths hand BLAS the same operands.

The backward computes only the gradients its inputs need
(``Function.needs_input_grad``): the weight gradient reads the saved
column matrix, which a frozen weight's forward never keeps.  The K-major
input gradient is ``Wᵀ @ grad`` one block of images at a time into block
scratch, which is added into the unpadded input gradient kernel offset
by kernel offset: for a same conv as one flat shifted add per offset
(:func:`shift_add_windows`), otherwise by :func:`scatter_add_windows`,
whose strided adds the overlapping or padded pooling backwards share.
The channels-last one comes out as one NHWC slab per kernel offset,
which :func:`_col2im_nhwc` scatter-adds into a padded NHWC buffer.  Max
pooling runs :func:`max_pool_into`, the compiled runtime's own function,
and records the first-max index only when a gradient is needed; a pool
whose windows tile the input (stride equal to the kernel, no padding)
writes each input position's gradient once.  Every route gives the
bytes of the strided one.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError

__all__ = [
    "CONV_BLOCK_BYTES",
    "as_pair",
    "avg_pool2d",
    "conv2d",
    "conv_block_images",
    "conv_gemm",
    "im2col",
    "is_same",
    "max_pool2d",
    "max_pool_into",
    "scatter_add_windows",
    "shift_add_windows",
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

#: Bytes one block of images may touch in a K-major conv: its column
#: block plus its output block and the activation scratch the compiled
#: runtime's epilogue runs over it.  The compiled ``ConvKernel`` runs
#: gather, GEMM and epilogue one block at a time, so all three stay in
#: cache and the column scratch does not grow with the batch; a frozen
#: conv's autograd forward and every K-major input gradient block the
#: same way.  Forward speed against one whole-batch block, VGG16
#: perfbench fixture at batch 128 on a 2-core host: 256 KiB 0.85x,
#: 512 KiB 1.05x, 1 MiB 1.17x, 2 MiB 1.28x, 4-8 MiB 1.22x.
CONV_BLOCK_BYTES = 2 << 20

#: Epilogue bytes per output element: the float32 output plus the
#: activation scratch (FitReLU's one float plane; a ReLU or bound mask).
_EPILOGUE_BYTES = 4 + 4 + 1


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


def is_same(
    kernel: tuple[int, int], stride: tuple[int, int], padding: tuple[int, int]
) -> bool:
    """A stride-1 conv whose padding keeps the map size (``2 * p == k - 1``
    on both axes): its K-major gather and input-gradient scatter run by
    flat shifts (:func:`im2col`, :func:`shift_add_windows`)."""
    return stride == (1, 1) and all(
        2 * p == k - 1 for k, p in zip(kernel, padding)
    )


def _wrapped(size: int, shift: int) -> slice:
    """The positions ``p`` of an axis of ``size`` whose source ``p + shift``
    falls outside ``[0, size)``."""
    if shift > 0:
        return slice(max(0, size - shift), size)
    return slice(0, min(size, -shift))


def _zero_off_map(planes: np.ndarray, padding: tuple[int, int]) -> None:
    """Zero, in the (N, C, kh, kw, H, W) ``planes`` of a same conv, every
    position whose window element lies off the map: the rows that fell
    off the top or bottom and the columns whose flat shift wraps into the
    neighbouring row.  One strided assignment per off-centre kernel row
    and column, across all offsets."""
    _, _, kh, kw, h, w = planes.shape
    ph, pw = padding
    for i in range(kh):
        if i != ph:
            planes[:, :, i, :, _wrapped(h, i - ph)] = 0
    for j in range(kw):
        if j != pw:
            planes[:, :, :, j, :, _wrapped(w, j - pw)] = 0


def conv_block_images(
    channels: int,
    area: int,
    out_channels: int,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> int:
    """Images per K-major block for a conv with ``channels`` inputs and
    ``area`` output positions: as many as fit :data:`CONV_BLOCK_BYTES`,
    at least one.  The GEMM has one fixed shape per image, so any block
    size gives the same bytes."""
    rows = 0
    if not is_pointwise(kernel, stride, padding):
        rows = channels * kernel[0] * kernel[1]
    per_image = area * (4 * rows + _EPILOGUE_BYTES * out_channels)
    return max(1, CONV_BLOCK_BYTES // per_image)


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

    A K-major same conv (:func:`is_same`) gathers by flat shifts and
    reads no padded buffer: kernel offset ``(i, j)`` is one copy of the
    flattened input shifted by ``(i - ph) * W + (j - pw)`` into its
    plane, ``H * W`` floats long rather than ``OW``, after which the
    rows that fell off the map and the columns that wrapped into the
    neighbouring row are zeroed, ``(kh - 1) + (kw - 1)`` strided
    assignments across all offsets.  Any other padded conv reads a
    zero-bordered copy of ``x`` (NCHW for K-major, NHWC for
    channels-last); ``padded`` supplies that buffer with zero borders
    (only the interior is written), by default one is allocated.  Each
    kernel offset is one copy either way, so the bytes are exact.
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
    if kmajor and is_same(kernel, stride, padding):
        return _shift_gather(x, kernel, padding, out)
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


def _shift_gather(
    x: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
    out: np.ndarray,
) -> np.ndarray:
    """:func:`im2col`'s K-major columns of a same conv, by flat shifts."""
    n, c, h, w = x.shape
    kh, kw = kernel
    area = h * w
    src = x.reshape(n, c, area)
    planes = out.reshape(n, c, kh, kw, area)
    for i in range(kh):
        for j in range(kw):
            shift = (i - padding[0]) * w + (j - padding[1])
            lo, hi = max(0, -shift), min(area, area - shift)
            if lo < hi:
                np.copyto(
                    planes[:, :, i, j, lo:hi], src[:, :, lo + shift : hi + shift]
                )
    # The copies wrote every position whose source is on the map, and
    # the wrapped columns; the rest lies in rows off the map.
    _zero_off_map(out.reshape(n, c, kh, kw, h, w), padding)
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
    as :func:`scatter_add_windows` — and the interior is transposed to
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


def _interior(
    size: int, out_size: int, offset: int, stride: int, pad: int
) -> slice | None:
    """The output positions whose window, at kernel ``offset``, lands
    inside the unpadded input; ``None`` when none does."""
    first = max(0, -(-(pad - offset) // stride))
    stop = min(out_size, (size - 1 + pad - offset) // stride + 1)
    if first >= stop:
        return None
    return slice(first, stop)


def scatter_add_windows(
    grad_x: np.ndarray,
    windows: np.ndarray,
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """col2im in NCHW: add window gradients into ``grad_x`` in place.

    ``windows`` has shape (N, C, kh, kw, OH, OW) (a broadcast view is
    fine) and ``grad_x`` (N, C, H, W), the unpadded input gradient.
    Each kernel offset ``(i, j)`` is added separately, in (i, j) order,
    so overlapping windows (stride < kernel) accumulate in a fixed order;
    each offset's window range is clipped to the interior, so what would
    land in the padding is never computed.  From a zero ``grad_x`` this
    gives the bytes of scattering into a zero padded buffer and slicing
    its interior.  Each add runs over rows only ``OW`` long; a same
    conv's input gradient takes :func:`shift_add_windows` instead.
    """
    _, _, h, w = grad_x.shape
    _, _, kh, kw, oh, ow = windows.shape
    sh, sw = stride
    ph, pw = padding
    for i in range(kh):
        rows = _interior(h, oh, i, sh, ph)
        if rows is None:
            continue
        y0 = i + sh * rows.start - ph
        for j in range(kw):
            cols = _interior(w, ow, j, sw, pw)
            if cols is None:
                continue
            x0 = j + sw * cols.start - pw
            dst = grad_x[
                :,
                :,
                y0 : y0 + sh * (rows.stop - rows.start - 1) + 1 : sh,
                x0 : x0 + sw * (cols.stop - cols.start - 1) + 1 : sw,
            ]
            np.add(dst, windows[:, :, i, j, rows, cols], out=dst)
    return grad_x


def shift_add_windows(
    flat: np.ndarray, windows: np.ndarray, padding: tuple[int, int]
) -> np.ndarray:
    """:func:`scatter_add_windows` for a same conv (:func:`is_same`), by
    flat shifts: each kernel offset's window gradients are one add,
    ``N * C * H * W`` floats long, into the flattened input gradient.

    ``flat`` is that gradient with ``ph * W + pw`` (the largest shift)
    extra floats on each side, so every shifted add stays in bounds.
    ``windows`` (N, C, kh, kw, H, W) must be writable: its off-map
    positions are zeroed first, so the adds carry only ``+0.0`` where a
    shift wraps into a neighbouring row, channel or image (or the
    margins).  Added into a gradient that started at ``+0.0`` and so
    never holds ``-0.0``, a ``+0.0`` is an exact no-op, which makes the
    bytes :func:`scatter_add_windows`' over zero.  Adds run in (i, j)
    order.
    """
    n, c, kh, kw, h, w = windows.shape
    _zero_off_map(windows, padding)
    margin, size = padding[0] * w + padding[1], n * c * h * w
    planes = windows.reshape(n, c, kh, kw, h * w)
    for i in range(kh):
        for j in range(kw):
            start = margin + (i - padding[0]) * w + (j - padding[1])
            target = flat[start : start + size].reshape(n, c, h * w)
            np.add(target, planes[:, :, i, j], out=target)
    return flat


def max_pool_into(
    padded: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    out: np.ndarray,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Max pooling of the padded NCHW ``padded`` into ``out`` (N, C, OH, OW).

    One elementwise ``np.maximum`` per kernel offset, in (i, j) order —
    an order of magnitude faster than a reduction over a window view,
    and exact: max selects an element (NaN if the window holds one; of a
    tie between ``+0.0`` and ``-0.0`` either may come out).  The autograd
    op and the compiled runtime's max-pool step both call this function.

    ``index`` (same shape as ``out``, an unsigned dtype holding
    ``kh * kw - 1``), when given, receives the offset ``i * kw + j`` that
    ``argmax`` over each window picks: the first element equal to the
    maximum, or the first NaN.
    """
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out.shape[-2:]

    def window(offset: int) -> np.ndarray:
        i, j = divmod(offset, kw)
        return padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]

    np.copyto(out, window(0))
    for offset in range(1, kh * kw):
        np.maximum(out, window(offset), out=out)
    if index is None:
        return out
    # Last offset first, so the first hit wins.  Some offset always hits
    # (the maximum is an element), so the last is the default; ``index``
    # only ever falls, and falls to ``offset`` by ``hit * (index - offset)``
    # rather than by a masked copy, which branches per element.
    nan = bool(np.isnan(out).any())
    hit = np.empty(out.shape, dtype=np.bool_)
    fall = np.empty(out.shape, dtype=index.dtype)
    index.fill(kh * kw - 1)
    for offset in range(kh * kw - 2, -1, -1):
        np.equal(window(offset), out, out=hit)
        if nan:  # a NaN maximum is the window's first NaN
            hit |= np.isnan(window(offset))
        np.subtract(index, offset, out=fall)
        np.multiply(fall, hit, out=fall)
        np.subtract(index, fall, out=index)
    return out


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
        n, c, h, w = x.shape
        out_channels, _, kh, kw = weight.shape
        oh = _out_size(h, kh, stride[0], padding[0])
        ow = _out_size(w, kw, stride[1], padding[1])
        kmajor = use_kmajor(oh * ow, groups)
        need_x, need_weight = self.needs_input_grad[:2]

        block = None
        if kmajor:
            # The weight gradient reads the whole batch's columns; with
            # none to keep, one block of images at a time.
            block = n
            if not need_weight:
                rule = conv_block_images(
                    c, oh * ow, out_channels, (kh, kw), stride, padding
                )
                block = min(n, rule)
            out = np.empty(
                (n, out_channels, oh * ow), dtype=np.result_type(weight, x)
            )
            cols_buf = padded = None
            if not is_pointwise((kh, kw), stride, padding):
                cols_buf = np.empty((block, c * kh * kw, oh * ow), dtype=x.dtype)
                if padding != (0, 0) and not is_same((kh, kw), stride, padding):
                    ph, pw = padding
                    padded = np.zeros((block, c, h + 2 * ph, w + 2 * pw), x.dtype)
            for b0 in range(0, n, block):
                m = min(n, b0 + block) - b0
                cols = im2col(
                    x[b0 : b0 + m], (kh, kw), stride, padding, kmajor,
                    out=None if cols_buf is None else cols_buf[:m],
                    padded=None if padded is None else padded[:m],
                )
                rows = conv_gemm(weight, cols, groups, out=out[b0 : b0 + m])
                if bias is not None:
                    rows += bias.reshape(-1, 1)
            out = out.reshape(n, out_channels, oh, ow)
        else:
            cols = im2col(x, (kh, kw), stride, padding, kmajor)
            out = conv_gemm(weight, cols, groups)
            if bias is not None:
                out += bias
            out = np.ascontiguousarray(
                out.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)
            )

        self.has_bias = bias is not None
        self.stride, self.padding = stride, padding
        self.groups, self.kmajor = groups, kmajor
        self.block = block  # images per K-major forward block, else None
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
            # Wᵀ @ grad one block of images at a time, each block's
            # window gradients added straight into the unpadded grad_x.
            weight_t = self.weight.reshape(groups, og, kg).transpose(0, 2, 1)
            c = self.in_shape[1]
            rule = conv_block_images(
                c, oh * ow, out_channels, (kh, kw), self.stride, self.padding
            )
            block = min(n, rule)
            # A same conv's shifted adds run over grad_x flattened, with
            # room for the largest shift on each side.
            same = is_same((kh, kw), self.stride, self.padding)
            margin = self.padding[0] * ow + self.padding[1] if same else 0
            image = math.prod(self.in_shape[1:])
            flat = np.zeros(
                n * image + 2 * margin, dtype=np.result_type(weight_t, grad)
            )
            grad_x = flat[margin : margin + n * image].reshape(self.in_shape)
            scratch = np.empty((block, groups, kg, oh * ow), dtype=grad_x.dtype)
            for b0 in range(0, n, block):
                m = min(n, b0 + block) - b0
                windows = np.matmul(
                    weight_t, grad[b0 : b0 + m], out=scratch[:m]
                ).reshape(m, c, kh, kw, oh, ow)
                if same:
                    shift_add_windows(
                        flat[b0 * image : (b0 + m) * image + 2 * margin],
                        windows,
                        self.padding,
                    )
                else:
                    scatter_add_windows(
                        grad_x[b0 : b0 + m], windows, self.stride, self.padding
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
    """Max pooling by :func:`max_pool_into`; when the input needs a
    gradient the forward also records each window's first-max offset,
    and the backward routes ``grad_out`` to it."""

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
        n, c, h, w = x.shape
        oh = _out_size(h, kh, stride[0], padding[0])
        ow = _out_size(w, kw, stride[1], padding[1])
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
        index = None
        if self.needs_input_grad[0]:
            index = np.empty(out.shape, dtype=np.min_scalar_type(kh * kw - 1))
        max_pool_into(
            _pad_spatial(x, *padding, fill=-np.inf), kernel, stride, out, index
        )
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        self.index = index
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        kh, kw = self.kernel
        n, c, oh, ow = grad_out.shape
        # Window gradients: grad_out at each window's first-max offset,
        # +0.0 elsewhere.  Selected by bit mask (all ones where routed),
        # so NaN, inf and -0.0 gradients keep their bits and no element
        # branches.
        bits = np.dtype(f"u{grad_out.dtype.itemsize}")
        routed = np.multiply(
            self.index[:, :, None] == np.arange(kh * kw).reshape(-1, 1, 1),
            np.iinfo(bits).max,
            dtype=bits,
        )
        np.bitwise_and(routed, grad_out.view(bits)[:, :, None], out=routed)
        windows = routed.view(grad_out.dtype).reshape(n, c, kh, kw, oh, ow)
        if self.stride != self.kernel or self.padding != (0, 0):
            grad_x = np.zeros(self.in_shape, dtype=grad_out.dtype)
            scatter_add_windows(grad_x, windows, self.stride, self.padding)
            return (grad_x,)
        # Windows tile the input without overlap: each covered position
        # is written once.  Adding +0.0 gives the bytes of adding into
        # zeros (-0.0 comes out +0.0, NaN keeps its bits); positions past
        # the last whole window get no gradient.
        grad_x = np.empty(self.in_shape, dtype=grad_out.dtype)
        grad_x[:, :, oh * kh :] = 0
        grad_x[:, :, :, ow * kw :] = 0
        tiles = grad_x[:, :, : oh * kh, : ow * kw].reshape(n, c, oh, kh, ow, kw)
        np.add(windows, 0.0, out=tiles.transpose(0, 1, 3, 5, 2, 4))
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
        n, c, oh, ow = grad_out.shape
        share = grad_out / float(kh * kw)
        grad_x = np.zeros(self.in_shape, dtype=share.dtype)
        windows = np.broadcast_to(share[:, :, None, None], (n, c, kh, kw, oh, ow))
        scatter_add_windows(grad_x, windows, self.stride, self.padding)
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
