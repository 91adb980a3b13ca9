"""Pure-numpy inference kernels with preallocated, reused buffers.

Each kernel wraps one (or a fused group of) :class:`~repro.nn.Module`
layers and evaluates the *identical* float32 arithmetic the module's
autograd forward performs — same primitive calls, same operand order —
without constructing a single ``Tensor`` or ``Function``.  FitReLU goes
one step further: module and kernels call one shared numpy function,
:func:`repro.core.fitrelu.fitrelu_into`, so there is no second copy of
its arithmetic to keep in step.  Bit-for-bit
equality with the eval-mode module forward is a hard contract, verified
for every registry model by ``tests/runtime/test_bit_exact.py``; it is
what lets fault campaigns switch the compiled path on and off without
changing a result.

Two rules keep fault-injection semantics intact:

- **Live parameter views.**  Kernels never copy weights: every ``run``
  reads ``param.data`` at call time, so a bit flipped by
  :class:`repro.fault.FaultInjector` (which *replaces* ``param.data``)
  is picked up by the very next forward.
- **Refreshable folded constants.**  The only derived quantities a
  kernel caches between calls are eval-mode BatchNorm statistics (the
  reshaped running mean and the precomputed ``(var + eps) ** -0.5``).
  :meth:`Kernel.refresh` recomputes them from the live module; the
  owning :class:`~repro.runtime.plan.InferencePlan` calls it whenever a
  parameter mutation is signalled or detected.  FitReLU's gate slope is
  not cached: it is recomputed from the live bounds once per ``run``
  (not once per block of images).

Intermediate buffers are allocated lazily and reused across calls,
which removes the per-pass allocation churn that dominates the module
path.  They come in two lifetimes:

- **Scratch is per plan.**  The column matrix, the channels-last GEMM
  output and the activation masks die when the step that wrote them
  returns.  Steps run one at a time under the plan
  lock, so every kernel of a plan draws them from one
  :class:`ScratchArena`: one grow-only buffer per name, as large as the
  largest single need, not one copy per kernel and batch size.
- **``out`` and ``padded`` are per kernel** (:class:`_Buffers`, keyed by
  per-image shape and grown only along the batch axis).  A step's
  ``out`` is the next step's input (a residual
  shortcut's lives across a whole branch), and ``padded`` relies on
  fill borders that are written once and never again.

Kernels never write into their *input* array: plan inputs (e.g. an
:class:`~repro.eval.Evaluator`'s materialised batches) are read-only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.grad_mode import no_grad
from repro.autograd.ops_conv import (
    _out_size,
    as_pair,
    conv_gemm,
    im2col,
    is_pointwise,
    use_kmajor,
)
from repro.autograd.ops_nn import sigmoid_into
from repro.autograd.tensor import Tensor
from repro.core.bounded_relu import BoundedReLU
from repro.core.bounded_tanh import BoundedTanh
from repro.core.fitrelu import FitReLU, fitrelu_into, gate_slope
from repro.errors import ConfigurationError
from repro.nn.activations import Identity, LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module, eval_mode, is_warmup
from repro.nn.norm import _BatchNormBase
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

if TYPE_CHECKING:
    from repro.obs.profile import KernelProfiler

__all__ = [
    "ACTIVATION_TYPES",
    "CONV_BLOCK_BYTES",
    "ActivationKernel",
    "AvgPoolKernel",
    "BatchNormKernel",
    "ConvKernel",
    "FallbackKernel",
    "FaultStepKernel",
    "FlattenKernel",
    "GlobalAvgPoolKernel",
    "Kernel",
    "LinearKernel",
    "MaxPoolKernel",
    "ResidualKernel",
    "ScratchArena",
    "activation_constants",
    "apply_activation",
    "runs_per_image",
    "walk_kernels",
]

#: Bytes one block of images may touch in a K-major conv: its column
#: block plus its output block and the activation scratch the epilogue
#: runs over it.  ``ConvKernel`` runs gather, GEMM and epilogue one block
#: at a time, so all three stay in cache and the column scratch no
#: longer grows with the batch.  Forward speed against one whole-batch
#: block, VGG16 perfbench fixture at batch 128 on a 2-core host: 256 KiB
#: 0.85x, 512 KiB 1.05x, 1 MiB 1.17x, 2 MiB 1.28x, 4-8 MiB 1.22x.
CONV_BLOCK_BYTES = 2 << 20

#: Epilogue bytes per output element: the float32 output plus the
#: activation scratch (FitReLU's one float plane; a ReLU or bound mask).
_EPILOGUE_BYTES = 4 + 4 + 1

#: Activation modules the kernels can evaluate inline (as fused
#: epilogues or standalone steps) with bit-exact module semantics.
#: ``BoundedReLU`` covers its subclasses GBReLU and FitReLUNaive.
ACTIVATION_TYPES = (
    ReLU,
    LeakyReLU,
    Sigmoid,
    Tanh,
    Softmax,
    BoundedReLU,
    BoundedTanh,
    FitReLU,
    Identity,
)


class ScratchArena:
    """Grow-only scratch memory shared by every kernel of one plan.

    Holds one flat buffer per ``(name, dtype)``; :meth:`get` returns a
    contiguous view of the requested shape at the buffer's start,
    growing the buffer when the request is larger.  A plan's steps run
    one at a time under its lock and none keeps scratch past its own
    ``run``, so the arena ends up as large as the largest single need
    per name, whatever the number of kernels and batch sizes.  Names a
    step needs at the same time must differ.

    Arenas are per plan, never per process: plans of different models
    run concurrently (one per resident checkpoint in ``serve``).
    """

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: dict[tuple[str, np.dtype], np.ndarray] = {}

    def get(
        self, name: str, shape: tuple[int, ...], dtype: type = np.float32
    ) -> np.ndarray:
        key = (name, np.dtype(dtype))
        size = math.prod(shape)
        buf = self._store.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self._store[key] = buf
        return buf[:size].reshape(shape)

    def sizes(self) -> dict[str, int]:
        """Bytes held per scratch name (dtypes of one name summed)."""
        sizes: dict[str, int] = {}
        for (name, _dtype), buf in self._store.items():
            sizes[name] = sizes.get(name, 0) + buf.nbytes
        return sizes


class _Buffers:
    """A kernel's own batch-first arrays, reused by name and per-image
    shape, plus its scratch.

    Only ``out`` and ``padded`` live here, per kernel: the output feeds
    later steps, and ``padded`` keeps fill borders that are never
    rewritten.  Each ``(name, shape[1:], dtype)`` holds one array that
    grows only along the batch axis; a smaller batch (a serve lane's
    micro-batch, an evaluator's ragged final batch, a replica lane's
    image subset) gets its leading rows, which are contiguous.  So any
    mix of batch sizes costs one array per kernel and name, as large as
    the largest batch.  Everything else is scratch, drawn from the
    plan's :class:`ScratchArena` (``scratch``; a kernel outside a plan
    gets a private one).
    """

    __slots__ = ("_store", "scratch")

    def __init__(self) -> None:
        self._store: dict[tuple, np.ndarray] = {}
        self.scratch = ScratchArena()

    def get(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: type = np.float32,
        fill: float | None = None,
    ) -> np.ndarray:
        key = (name, shape[1:], np.dtype(dtype))
        buf = self._store.get(key)
        if buf is None or buf.shape[0] < shape[0]:
            buf = np.empty(shape, dtype=dtype)
            if fill is not None:
                # One-time fill: callers rely on never-rewritten regions
                # (padding borders) keeping this value across reuses.
                buf.fill(fill)
            self._store[key] = buf
        return buf[: shape[0]]

    def sizes(self) -> dict[str, int]:
        """Bytes held per buffer name (all per-image shapes summed)."""
        sizes: dict[str, int] = {}
        for (name, _shape, _dtype), buf in self._store.items():
            sizes[name] = sizes.get(name, 0) + buf.nbytes
        return sizes


def activation_constants(module: Module | None) -> np.ndarray | None:
    """Per-run constants of ``module``'s activation, or ``None``.

    Only FitReLU has any: its gate slope
    (:func:`repro.core.fitrelu.gate_slope`), read from the live bounds.
    A kernel that evaluates its activation block by block computes it
    once per ``run`` and hands it to every :func:`apply_activation`
    call of that run.
    """
    if isinstance(module, FitReLU):
        return gate_slope(module.bound.data, module.k, module.slope_mode)
    return None


def apply_activation(
    module: Module,
    src: np.ndarray,
    out: np.ndarray,
    scratch: ScratchArena,
    constants: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate ``module``'s activation on ``src``, writing into ``out``.

    ``out`` may alias ``src`` (the fused-epilogue case); every branch
    reads any pre-activation-dependent masks before overwriting.
    FitReLU runs :func:`repro.core.fitrelu.fitrelu_into`, the very
    function its module forward calls, with ``constants`` from
    :func:`activation_constants` (computed here when not given).  The
    other branches mirror their module's forward — same primitive ops
    in the same order.  Either way results are bit-identical to the
    autograd path.
    """
    if isinstance(module, Identity):
        return src
    if isinstance(module, ReLU):
        mask = scratch.get("act_mask", src.shape, dtype=np.bool_)
        np.greater(src, 0, out=mask)
        return np.multiply(src, mask, out=out)
    if isinstance(module, BoundedReLU):
        bound = module.bound.data
        mask = scratch.get("act_mask", src.shape, dtype=np.bool_)
        if module.mode == "saturate":
            np.greater(src, 0, out=mask)
            np.multiply(src, mask, out=out)
            return np.minimum(out, bound, out=out)
        over = scratch.get("act_over", src.shape, dtype=np.bool_)
        np.greater(src, bound, out=over)
        np.greater(src, 0, out=mask)
        np.multiply(src, mask, out=out)
        out[over] = 0.0
        return out
    if isinstance(module, BoundedTanh):
        bound = module.bound.data
        mask = scratch.get("act_mask", src.shape, dtype=np.bool_)
        np.greater(src, 0, out=mask)
        np.multiply(src, mask, out=out)
        np.divide(out, bound, out=out)
        np.tanh(out, out=out)
        return np.multiply(bound, out, out=out)
    if isinstance(module, FitReLU):
        a = constants if constants is not None else activation_constants(module)
        plane = scratch.get("act_gate", src.shape)
        return fitrelu_into(src, module.bound.data, a, out, plane)
    if isinstance(module, LeakyReLU):
        mask = src > 0
        out[...] = np.where(mask, src, module.negative_slope * src)
        return out
    if isinstance(module, Sigmoid):
        # out may alias src, so the scratch arrays must be separate.
        return sigmoid_into(
            src,
            out,
            e=scratch.get("act_z", src.shape),
            d=scratch.get("act_gate", src.shape),
            mask=scratch.get("act_mask", src.shape, dtype=np.bool_),
        )
    if isinstance(module, Tanh):
        return np.tanh(src, out=out)
    if isinstance(module, Softmax):
        shifted = src - src.max(axis=module.axis, keepdims=True)
        exp = np.exp(shifted)
        out[...] = exp / exp.sum(axis=module.axis, keepdims=True)
        return out
    raise ConfigurationError(
        f"no inline kernel for activation {type(module).__name__}"
    )


class Kernel:
    """One step of an :class:`~repro.runtime.plan.InferencePlan`."""

    #: Attached :class:`~repro.obs.KernelProfiler` — set per instance by
    #: ``InferencePlan.attach_profiler`` while profiling is on, ``None``
    #: otherwise.  Instrumented sections guard on ``prof is not None``,
    #: so a detached kernel pays one truth test, not a clock read.
    prof: "KernelProfiler | None" = None

    def refresh(self) -> None:
        """Recompute cached constants from the live module state."""

    def run(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def child_kernels(self) -> "tuple[tuple[str, list[Kernel]], ...]":
        """Nested kernel lists as ``(branch, steps)`` pairs (profiling)."""
        return ()

    def source_modules(self) -> "tuple[Module, ...]":
        """The modules whose live state this step reads at run time.

        :class:`~repro.runtime.replica.ReplicaPlan` builds its
        parameter → reading-steps map from this: a fault in one of
        these modules' parameters can change this step's output but no
        earlier step's.  Kernels with nested branches report their
        children's sources as their own (the whole block is one step of
        the owning plan).
        """
        return ()

    def per_image(self) -> bool:
        """Whether the latest ``run`` computed each image from that image
        alone, with arithmetic that does not depend on the batch.

        Then running any subset of the images gives the same bits as the
        matching rows of a whole-batch run, which is what lets replica
        lanes re-run only the images a fault reached.  False — the safe
        answer — for steps whose GEMM spans the whole batch (channels-last
        convs, Linear), for batch-axis reductions and for kernels that
        do not say.
        """
        return False

    def describe(self) -> str:
        return type(self).__name__


def walk_kernels(steps: Iterable[Kernel]) -> Iterator[Kernel]:
    """Every kernel of ``steps``, depth first, nested branches included.

    Steps from ``register_block_compiler`` need not subclass
    :class:`Kernel`; one without ``child_kernels`` has no nested steps.
    """
    for step in steps:
        yield step
        children = getattr(step, "child_kernels", None)
        for _branch, sub_steps in children() if children is not None else ():
            yield from walk_kernels(sub_steps)


def runs_per_image(step: Kernel) -> bool:
    """``step``'s :meth:`Kernel.per_image`; False for a step from
    ``register_block_compiler`` that does not define it."""
    per_image = getattr(step, "per_image", None)
    return per_image is not None and bool(per_image())


def _per_image_activation(module: Module | None) -> bool:
    """Whether ``module`` (an inline activation or None) is elementwise
    or reduces within one image; only Softmax may reduce across the
    batch, so it is never treated as per-image."""
    return not isinstance(module, Softmax)


class _BNFold:
    """Cached eval-mode BatchNorm constants (the plan's folded state).

    ``mean`` and ``inv_std`` are flat per-channel vectors; the affine
    weight/bias are read live at run time (views are cheap and live
    views keep injected faults in BN parameters immediately visible).
    """

    __slots__ = ("bn", "mean", "inv_std")

    def __init__(self, bn: _BatchNormBase) -> None:
        self.bn = bn
        self.refresh()

    def refresh(self) -> None:
        bn = self.bn
        # Snapshots, not views: both constants change only via refresh(),
        # which is the whole point of the fold/refresh contract.
        self.mean = np.array(bn.running_mean, dtype=np.float32).reshape(-1)
        # Same expression as the module's (var + eps) ** -0.5: float32
        # array + float32 scalar, then a python-float exponent.
        self.inv_std = (
            np.asarray(bn.running_var, dtype=np.float32).reshape(-1)
            + np.float32(bn.eps)
        ) ** -0.5

    def apply(self, rows: np.ndarray, shape: tuple[int, ...]) -> None:
        """Normalise a GEMM output in place (the epilogue).

        ``shape`` reshapes the per-channel vectors to broadcast over
        ``rows``: ``(-1,)`` for channels-last ``(positions, channels)``
        rows, ``(-1, 1)`` for NCHW ``(N, channels, positions)``.
        """
        np.subtract(rows, self.mean.reshape(shape), out=rows)
        np.multiply(rows, self.inv_std.reshape(shape), out=rows)
        if self.bn.affine:
            np.multiply(rows, self.bn.weight.data.reshape(shape), out=rows)
            np.add(rows, self.bn.bias.data.reshape(shape), out=rows)


class ConvKernel(Kernel):
    """Convolution with optional fused BatchNorm + activation.

    Runs the autograd op's own two layouts, picked per call from the
    output map's size (:func:`repro.autograd.ops_conv.use_kmajor`), with
    the same :func:`~repro.autograd.ops_conv.im2col` gather and
    :func:`~repro.autograd.ops_conv.conv_gemm` call, so results are
    bit-exact with the module forward on any BLAS backend (enforced per
    layout by ``tests/runtime``).  ``tier`` names the layout of the
    latest call:

    ``im2col``
        K-major (maps of at least ``KMAJOR_MIN_AREA`` positions, and
        every grouped conv), one block of ``block`` images at a time
        (:data:`CONV_BLOCK_BYTES`): ``kh * kw`` plane copies into the
        block's ``(B, C * kh * kw, OH * OW)`` columns, none for a
        pointwise conv, then one stacked GEMM straight into the block's
        rows of the NCHW output, then bias, BatchNorm and the activation
        over those rows while they are still in cache.  The GEMM has one
        fixed shape per image, so an image's output does not depend on
        its block, and the epilogue is elementwise: the blocks are
        bit-exact with one whole-batch pass.
    ``nhwc``
        Channels-last (smaller maps), over the whole batch (splitting
        its position-major GEMM would change its rounding): a padded
        NHWC copy, slabs gathered in ``(kh, kw, c)`` order, one GEMM
        into scratch; bias and BatchNorm run on its channel vectors
        before the transpose to NCHW.  A 1x1 unpadded conv gathers one
        strided NHWC copy.
    """

    def __init__(
        self,
        conv: Conv2d,
        bn: _BatchNormBase | None = None,
        act: Module | None = None,
    ) -> None:
        self.conv = conv
        self.bn = _BNFold(bn) if bn is not None else None
        self.act = act
        self.bufs = _Buffers()
        self.tier: str | None = None
        self.block: int | None = None

    def refresh(self) -> None:
        if self.bn is not None:
            self.bn.refresh()

    def source_modules(self) -> "tuple[Module, ...]":
        modules: tuple[Module, ...] = (self.conv,)
        if self.bn is not None:
            modules += (self.bn.bn,)
        if self.act is not None:
            modules += (self.act,)
        return modules

    def per_image(self) -> bool:
        # K-major runs one fixed-shape GEMM per image; channels-last
        # runs one GEMM over every image's positions.
        return self.tier == "im2col" and _per_image_activation(self.act)

    def block_images(self, channels: int, area: int) -> int:
        """Images per K-major block for ``channels`` inputs and ``area``
        output positions: as many as fit :data:`CONV_BLOCK_BYTES`, at
        least one."""
        conv = self.conv
        rows = 0
        if not is_pointwise(conv.kernel_size, conv.stride, conv.padding):
            rows = channels * conv.kernel_size[0] * conv.kernel_size[1]
        per_image = area * (4 * rows + _EPILOGUE_BYTES * conv.out_channels)
        return max(1, CONV_BLOCK_BYTES // per_image)

    def run(self, x: np.ndarray) -> np.ndarray:
        conv = self.conv
        n, c, h, w = x.shape
        kh, kw = conv.kernel_size
        sh, sw = conv.stride
        ph, pw = conv.padding
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        out = self.bufs.get("out", (n, conv.out_channels, oh, ow))
        if not use_kmajor(oh * ow, conv.groups):
            self.tier, self.block = "nhwc", None
            self._run_nhwc(x, out)
            return out
        block = min(n, self.block_images(c, oh * ow))
        if isinstance(self.act, Softmax) and self.act.axis % x.ndim == 0:
            block = n  # a softmax across the batch needs every image at once
        self.tier, self.block = "im2col", block
        constants = activation_constants(self.act)
        padded = None
        if ph or pw:
            # Borders are zero-filled once; each block writes only the
            # interior of its first images.
            padded = self.bufs.get(
                "padded", (block, c, h + 2 * ph, w + 2 * pw), fill=0.0
            )
        for b0 in range(0, n, block):
            b1 = min(n, b0 + block)
            self._run_kmajor(
                x[b0:b1],
                out[b0:b1],
                None if padded is None else padded[: b1 - b0],
                constants,
            )
        return out

    def _run_kmajor(
        self,
        x: np.ndarray,
        out: np.ndarray,
        padded: np.ndarray | None,
        constants: np.ndarray | None,
    ) -> None:
        """Gather, GEMM and epilogue of one block of images into ``out``;
        ``constants`` are the run's :func:`activation_constants`."""
        conv = self.conv
        prof = self.prof
        m, c = x.shape[:2]
        _, out_channels, oh, ow = out.shape
        kh, kw = conv.kernel_size
        started = prof.now() if prof is not None else 0.0
        cols = None
        if not is_pointwise(conv.kernel_size, conv.stride, conv.padding):
            cols = self.bufs.scratch.get("cols", (m, c * kh * kw, oh * ow))
        cols = im2col(
            x, conv.kernel_size, conv.stride, conv.padding, kmajor=True,
            out=cols, padded=padded,
        )
        if prof is not None:
            prof.phase(self, "gather", started, prof.now())
            started = prof.now()
        rows = conv_gemm(
            conv.weight.data, cols, conv.groups,
            out=out.reshape(m, out_channels, oh * ow),
        )
        if prof is not None:
            prof.phase(self, "gemm", started, prof.now())
        self._epilogue(rows, (-1, 1))
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs.scratch, constants)

    def _run_nhwc(self, x: np.ndarray, out: np.ndarray) -> None:
        """The channels-last layout over the whole batch into ``out``."""
        conv = self.conv
        prof = self.prof
        n, c, h, w = x.shape
        _, out_channels, oh, ow = out.shape
        kh, kw = conv.kernel_size
        ph, pw = conv.padding
        started = prof.now() if prof is not None else 0.0
        padded = None
        if ph or pw:
            padded = self.bufs.get(
                "padded", (n, h + 2 * ph, w + 2 * pw, c), fill=0.0
            )
        cols = im2col(
            x, conv.kernel_size, conv.stride, conv.padding, kmajor=False,
            out=self.bufs.scratch.get("cols", (n * oh * ow, c * kh * kw)),
            padded=padded,
        )
        if prof is not None:
            prof.phase(self, "gather", started, prof.now())
            started = prof.now()
        rows = conv_gemm(
            conv.weight.data, cols, 1,
            out=self.bufs.scratch.get("gemm", (n * oh * ow, out_channels)),
        )
        if prof is not None:
            prof.phase(self, "gemm", started, prof.now())
        self._epilogue(rows, (-1,))
        np.copyto(out, rows.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2))
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs.scratch)

    def _epilogue(self, rows: np.ndarray, vector_shape: tuple[int, ...]) -> None:
        """Bias and BatchNorm over GEMM rows, per-channel vectors shaped
        ``vector_shape``."""
        if self.conv.bias is not None:
            np.add(rows, self.conv.bias.data.reshape(vector_shape), out=rows)
        if self.bn is not None:
            self.bn.apply(rows, vector_shape)

    def describe(self) -> str:
        parts = [f"conv{self.conv.kernel_size}"]
        if self.bn is not None:
            parts.append("bn")
        if self.act is not None:
            parts.append(type(self.act).__name__)
        tag = self.tier or "unrun"
        if self.block is not None:
            tag += f", block {self.block}"
        return "+".join(parts) + f"[{tag}]"


class LinearKernel(Kernel):
    """GEMM linear layer with optional fused BatchNorm1d + activation."""

    def __init__(
        self,
        linear: Linear,
        bn: _BatchNormBase | None = None,
        act: Module | None = None,
    ) -> None:
        self.linear = linear
        self.bn = _BNFold(bn) if bn is not None else None
        self.act = act
        self.bufs = _Buffers()

    def refresh(self) -> None:
        if self.bn is not None:
            self.bn.refresh()

    def source_modules(self) -> "tuple[Module, ...]":
        modules: tuple[Module, ...] = (self.linear,)
        if self.bn is not None:
            modules += (self.bn.bn,)
        if self.act is not None:
            modules += (self.act,)
        return modules

    def run(self, x: np.ndarray) -> np.ndarray:
        # The input already is the GEMM operand, and the BLAS call must
        # stay whole for bit-exactness.
        linear = self.linear
        prof = self.prof
        out = self.bufs.get("out", (x.shape[0], linear.out_features))
        started = prof.now() if prof is not None else 0.0
        np.matmul(x, linear.weight.data.T, out=out)
        if prof is not None:
            prof.phase(self, "gemm", started, prof.now())
        if linear.bias is not None:
            np.add(out, linear.bias.data, out=out)
        if self.bn is not None:
            self.bn.apply(out, (-1,))
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs.scratch)
        return out

    def describe(self) -> str:
        parts = [f"linear({self.linear.in_features}->{self.linear.out_features})"]
        if self.bn is not None:
            parts.append("bn")
        if self.act is not None:
            parts.append(type(self.act).__name__)
        return "+".join(parts)


class BatchNormKernel(Kernel):
    """Standalone eval-mode BatchNorm (when no GEMM precedes it)."""

    def __init__(self, bn: _BatchNormBase) -> None:
        self.fold = _BNFold(bn)
        self.bufs = _Buffers()

    def refresh(self) -> None:
        self.fold.refresh()

    def source_modules(self) -> "tuple[Module, ...]":
        return (self.fold.bn,)

    def per_image(self) -> bool:
        return True

    def run(self, x: np.ndarray) -> np.ndarray:
        bn = self.fold.bn
        stat_shape = [1] * x.ndim
        stat_shape[1] = bn.num_features
        shape = tuple(stat_shape)
        out = self.bufs.get("out", x.shape)
        np.subtract(x, self.fold.mean.reshape(shape), out=out)
        np.multiply(out, self.fold.inv_std.reshape(shape), out=out)
        if bn.affine:
            np.multiply(out, bn.weight.data.reshape(shape), out=out)
            np.add(out, bn.bias.data.reshape(shape), out=out)
        return out


class MaxPoolKernel(Kernel):
    """Max pooling.

    Max selects an element exactly (no rounding), so any evaluation
    order is bit-identical to the module's argmax/take formulation —
    which frees the kernel to use the fastest strategy per geometry:
    non-overlapping unpadded windows (the zoo's only configuration)
    reduce over a pure reshape view; everything else copies the window
    view contiguous once and reduces that.
    """

    def __init__(self, pool: MaxPool2d) -> None:
        self.kernel = as_pair(pool.kernel_size, "kernel")
        stride = pool.kernel_size if pool.stride is None else pool.stride
        self.stride = as_pair(stride, "stride")
        self.padding = as_pair(pool.padding, "padding")
        self.bufs = _Buffers()

    def per_image(self) -> bool:
        return True

    def run(self, x: np.ndarray) -> np.ndarray:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, h, w = x.shape
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        if ph or pw:
            padded = self.bufs.get(
                "padded", (n, c, h + 2 * ph, w + 2 * pw), fill=-np.inf
            )
            padded[:, :, ph : ph + h, pw : pw + w] = x
        else:
            padded = x
        out = self.bufs.get("out", (n, c, oh, ow))
        # One vectorised elementwise max per kernel offset — an order of
        # magnitude faster than a windowed reduction, and exact: max
        # selects an element, whatever the evaluation order.
        first = True
        for i in range(kh):
            for j in range(kw):
                window = padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
                if first:
                    np.copyto(out, window)
                    first = False
                else:
                    np.maximum(out, window, out=out)
        return out


class AvgPoolKernel(Kernel):
    """Strided-window average pooling (same reduction call as the op)."""

    def __init__(self, pool: AvgPool2d) -> None:
        self.kernel = as_pair(pool.kernel_size, "kernel")
        stride = pool.kernel_size if pool.stride is None else pool.stride
        self.stride = as_pair(stride, "stride")
        self.padding = as_pair(pool.padding, "padding")
        self.bufs = _Buffers()

    def per_image(self) -> bool:
        return True

    def run(self, x: np.ndarray) -> np.ndarray:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, h, w = x.shape
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        if ph or pw:
            padded = self.bufs.get(
                "padded", (n, c, h + 2 * ph, w + 2 * pw), fill=0.0
            )
            padded[:, :, ph : ph + h, pw : pw + w] = x
        else:
            padded = x
        windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[
            :, :, ::sh, ::sw
        ]
        out = self.bufs.get("out", (n, c, oh, ow))
        return np.mean(windows, axis=(-2, -1), out=out)


class GlobalAvgPoolKernel(Kernel):
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""

    def __init__(self, pool: GlobalAvgPool2d) -> None:
        del pool
        self.bufs = _Buffers()

    def per_image(self) -> bool:
        return True

    def run(self, x: np.ndarray) -> np.ndarray:
        out = self.bufs.get("out", x.shape[:2])
        return np.mean(x, axis=(2, 3), out=out)


class FlattenKernel(Kernel):
    """Collapse trailing dims (a view on the contiguous input buffer)."""

    def __init__(self, start_dim: int) -> None:
        self.start_dim = int(start_dim)

    def per_image(self) -> bool:
        return self.start_dim > 0  # the batch axis stays first

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[: self.start_dim] + (-1,))


class ActivationKernel(Kernel):
    """A standalone activation step (input is another kernel's output)."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.bufs = _Buffers()

    def source_modules(self) -> "tuple[Module, ...]":
        return (self.module,)

    def per_image(self) -> bool:
        return _per_image_activation(self.module)

    def run(self, x: np.ndarray) -> np.ndarray:
        if isinstance(self.module, Identity):
            return x
        out = self.bufs.get("out", x.shape)
        return apply_activation(self.module, x, out, self.bufs.scratch)

    def describe(self) -> str:
        return type(self.module).__name__


class ResidualKernel(Kernel):
    """Two-branch residual block: main chain + shortcut, summed, activated."""

    def __init__(
        self,
        main: list[Kernel],
        down: list[Kernel] | None,
        act: Module | None,
    ) -> None:
        self.main = main
        self.down = down
        self.act = act
        self.bufs = _Buffers()

    def refresh(self) -> None:
        for step in self.main:
            step.refresh()
        for step in self.down or ():
            step.refresh()

    def child_kernels(self) -> "tuple[tuple[str, list[Kernel]], ...]":
        if self.down is None:
            return (("main", self.main),)
        return (("main", self.main), ("down", self.down))

    def source_modules(self) -> "tuple[Module, ...]":
        # The whole block is one plan step: a fault anywhere inside it
        # (either branch) diverges the block's output.
        modules: tuple[Module, ...] = ()
        for _branch, steps in self.child_kernels():
            for step in steps:
                modules += step.source_modules()
        if self.act is not None:
            modules += (self.act,)
        return modules

    def per_image(self) -> bool:
        return _per_image_activation(self.act) and all(
            runs_per_image(step)
            for _branch, steps in self.child_kernels()
            for step in steps
        )

    def _run_branch(self, steps: list[Kernel], x: np.ndarray) -> np.ndarray:
        prof = self.prof
        if prof is None:
            for step in steps:
                x = step.run(x)
            return x
        for step in steps:
            started = prof.now()
            x = step.run(x)
            prof.step(step, started, prof.now())
        return x

    def run(self, x: np.ndarray) -> np.ndarray:
        identity = self._run_branch(self.down, x) if self.down else x
        h = self._run_branch(self.main, x)
        out = self.bufs.get("out", h.shape)
        np.add(h, identity, out=out)
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs.scratch)
        return out

    def describe(self) -> str:
        main = " -> ".join(step.describe() for step in self.main)
        if self.down is None:
            shortcut = "identity"
        else:
            shortcut = " -> ".join(step.describe() for step in self.down)
        return f"residual[{main}; shortcut {shortcut}]"


class FallbackKernel(Kernel):
    """Run an uncompilable module through its own (eval-mode) forward.

    Correctness net for custom architectures: semantics are identical to
    the module path (thread-local eval override, no grad recording), the
    step just forgoes the compiled speedup.
    """

    def __init__(self, module: Module) -> None:
        self.module = module

    def source_modules(self) -> "tuple[Module, ...]":
        return (self.module,)

    def run(self, x: np.ndarray) -> np.ndarray:
        with eval_mode(), no_grad():
            return self.module(Tensor(x)).data

    def describe(self) -> str:
        return f"fallback({type(self.module).__name__})"


class FaultStepKernel(Kernel):
    """Native kernel for a transient activation-fault layer.

    Replays :meth:`repro.fault.activation.ActivationFaultLayer.forward`
    exactly — encode to fixed-point words, draw fresh flip sites from
    the layer's *live* random stream, flip, decode — reading the armed
    state at run time, so one compiled plan serves both the clean and
    the armed phases of a campaign.  Disarmed, the step is a pure
    pass-through (zero cost), which is where protected-model campaigns
    recover the compiled speedup the old ``FallbackKernel`` treatment
    surrendered.

    Warm-up forwards (``repro.nn.warmup_mode``) skip the step entirely:
    they must not advance the layer's random stream or its counters,
    or plan and module paths would desynchronise.
    """

    def __init__(self, layer: Module) -> None:
        self.layer = layer

    def source_modules(self) -> "tuple[Module, ...]":
        return (self.layer,)

    def run(self, x: np.ndarray) -> np.ndarray:
        layer = self.layer
        if not layer.enabled or layer.fault_model is None or is_warmup():
            return x
        # Same helper as the layer's own forward — one implementation
        # of the fault arithmetic, one random-stream consumption order.
        return layer.apply_faults(x)

    def describe(self) -> str:
        return f"fault-site({self.layer.fmt})"
