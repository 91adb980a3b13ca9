"""Pure-numpy inference kernels with preallocated, reused buffers.

Each kernel wraps one (or a fused group of) :class:`~repro.nn.Module`
layers and evaluates the *identical* float32 arithmetic the module's
autograd forward performs — same primitive calls, same operand order —
without constructing a single ``Tensor`` or ``Function``.  Bit-for-bit
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
  parameter mutation is signalled or detected.

Intermediate buffers are allocated lazily per ``(name, shape)`` and
reused across calls — the im2col column matrix, the GEMM output, and
the NCHW output of every layer are written in place on each forward,
which removes the per-pass allocation churn that dominates the module
path.  Kernels never write into their *input* array: plan inputs (e.g.
an :class:`~repro.eval.Evaluator`'s materialised batches) are read-only.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.grad_mode import no_grad
from repro.autograd.ops_conv import (
    KMAJOR_MIN_AREA,
    _out_size,
    as_pair,
    gather_block,
    im2col,
    im2col_blocks,
)
from repro.autograd.ops_nn import sigmoid_into
from repro.autograd.tensor import Tensor
from repro.core.bounded_relu import BoundedReLU
from repro.core.bounded_tanh import BoundedTanh
from repro.core.fitrelu import FitReLU
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
    "apply_activation",
]

# ----------------------------------------------------------------------
# GEMM execution knobs (the blocked im2col gather's own knobs,
# GEMM_BLOCK_BYTES and KMAJOR_MIN_AREA, live in repro.autograd.ops_conv)
# ----------------------------------------------------------------------
#: Column matrices smaller than this many cells keep the serial gather
#: even when a kernel's ``gemm_workers`` allows threading: partitioning
#: overhead would exceed the work.
GEMM_THREAD_MIN_WORK = 1 << 21

# Why the threads drive the *gather*, not the GEMM itself: splitting
# one BLAS GEMM into row-partitioned calls is NOT float32-bit-exact —
# BLAS backends select micro-kernels by matrix shape (OpenBLAS's
# small-matrix paths accumulate K in a different order), so a sliced
# call can round differently from the full one.  Copies, by contrast,
# commute: parallel workers assembling disjoint column-matrix slices
# produce byte-identical input for the one full-shape GEMM the module
# path also performs.  The GEMM still parallelises — BLAS threads it
# natively wherever more than one core is usable.

_gemm_pool: ThreadPoolExecutor | None = None
_gemm_pool_size = 0
_gemm_pool_lock = threading.Lock()


def _run_partitioned(jobs: list) -> None:
    """Run thunks on the shared GEMM pool, propagating the first error.

    The pool grows to the widest parallelism ever requested and is
    shared by every kernel in the process; jobs from concurrently
    executing plans simply interleave.  Correctness never depends on
    the pool's actual width — each job owns a disjoint output slice —
    so over-subscription (more jobs than cores) only costs scheduling.
    """
    global _gemm_pool, _gemm_pool_size
    width = len(jobs)
    with _gemm_pool_lock:
        if _gemm_pool is None or _gemm_pool_size < width:
            old = _gemm_pool
            _gemm_pool = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-gemm"
            )
            _gemm_pool_size = width
            if old is not None:
                # Queued jobs on the retired pool still complete;
                # wait=False only refuses new submissions.
                old.shutdown(wait=False)
        # Submit while still holding the lock: a concurrent wider
        # request may retire this pool, and submitting to a shut-down
        # executor raises.  Execution is unaffected — only the (cheap)
        # enqueue is serialised.
        futures = [_gemm_pool.submit(job) for job in jobs]
    for future in futures:
        future.result()


def _row_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, near-even runs."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges

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


class _Buffers:
    """Lazily-allocated scratch arrays, reused by ``(name, shape)``.

    Distinct batch sizes (a serve lane's variable micro-batches, an
    evaluator's ragged final batch) keep distinct buffers, so switching
    between them never reallocates.
    """

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: dict[tuple, np.ndarray] = {}

    def get(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: type = np.float32,
        fill: float | None = None,
    ) -> np.ndarray:
        key = (name, shape, np.dtype(dtype))
        buf = self._store.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            if fill is not None:
                # One-time fill: callers rely on never-rewritten regions
                # (padding borders) keeping this value across reuses.
                buf.fill(fill)
            self._store[key] = buf
        return buf


def apply_activation(
    module: Module, src: np.ndarray, out: np.ndarray, bufs: _Buffers
) -> np.ndarray:
    """Evaluate ``module``'s activation on ``src``, writing into ``out``.

    ``out`` may alias ``src`` (the fused-epilogue case); every branch
    reads any pre-activation-dependent masks before overwriting.  The
    arithmetic mirrors each module's forward exactly — same primitive
    ops in the same order — so results are bit-identical to the
    autograd path.
    """
    if isinstance(module, Identity):
        return src
    if isinstance(module, ReLU):
        mask = bufs.get("act_mask", src.shape, dtype=np.bool_)
        np.greater(src, 0, out=mask)
        return np.multiply(src, mask, out=out)
    if isinstance(module, BoundedReLU):
        bound = module.bound.data
        mask = bufs.get("act_mask", src.shape, dtype=np.bool_)
        if module.mode == "saturate":
            np.greater(src, 0, out=mask)
            np.multiply(src, mask, out=out)
            return np.minimum(out, bound, out=out)
        over = bufs.get("act_over", src.shape, dtype=np.bool_)
        np.greater(src, bound, out=over)
        np.greater(src, 0, out=mask)
        np.multiply(src, mask, out=out)
        out[over] = 0.0
        return out
    if isinstance(module, BoundedTanh):
        bound = module.bound.data
        mask = bufs.get("act_mask", src.shape, dtype=np.bool_)
        np.greater(src, 0, out=mask)
        np.multiply(src, mask, out=out)
        np.divide(out, bound, out=out)
        np.tanh(out, out=out)
        return np.multiply(bound, out, out=out)
    if isinstance(module, FitReLU):
        bound = module.bound.data
        if module.slope_mode == "relative":
            scale = (module.k / np.maximum(np.abs(bound), 1e-6)).astype(np.float32)
        else:
            scale = np.float32(module.k)
        z = bufs.get("act_z", src.shape)
        np.subtract(bound, src, out=z)
        np.multiply(z, scale, out=z)
        gate = bufs.get("act_gate", src.shape)
        mask = bufs.get("act_mask", src.shape, dtype=np.bool_)
        # z is disposable and gate is fresh: the sigmoid runs in the
        # buffers the branch already owns.
        sigmoid_into(z, gate, e=gate, d=z, mask=mask)
        np.multiply(src, gate, out=out)
        np.greater(out, 0, out=mask)
        return np.multiply(out, mask, out=out)
    if isinstance(module, LeakyReLU):
        mask = src > 0
        out[...] = np.where(mask, src, module.negative_slope * src)
        return out
    if isinstance(module, Sigmoid):
        # out may alias src, so the scratch arrays must be separate.
        return sigmoid_into(
            src,
            out,
            e=bufs.get("act_z", src.shape),
            d=bufs.get("act_gate", src.shape),
            mask=bufs.get("act_mask", src.shape, dtype=np.bool_),
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
        parameter → earliest-reading-step map from this: a fault in one
        of these modules' parameters can change this step's output but
        no earlier step's.  Kernels with nested branches report their
        children's sources as their own (the whole block is one step of
        the owning plan).
        """
        return ()

    def describe(self) -> str:
        return type(self).__name__


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

    def apply_vectors(self, flat: np.ndarray) -> None:
        """Normalise a channels-last 2-D view in place (GEMM epilogue)."""
        np.subtract(flat, self.mean, out=flat)
        np.multiply(flat, self.inv_std, out=flat)
        if self.bn.affine:
            np.multiply(flat, self.bn.weight.data.reshape(-1), out=flat)
            np.add(flat, self.bn.bias.data.reshape(-1), out=flat)


class ConvKernel(Kernel):
    """Tiered im2col convolution with optional fused BatchNorm + activation.

    The execution tier is picked from the convolution's static geometry
    at construction time (the compiler builds one kernel per layer, so
    this is the "per-layer dispatch at plan build time"):

    ``direct1x1``
        Pointwise convolutions (1x1 kernel, no padding, any stride)
        skip im2col entirely: the strided input view is copied to a
        channels-last buffer once and multiplied in a single GEMM.
    ``im2col``
        General convolutions build the patch matrix with the autograd
        op's own gather (:func:`repro.autograd.ops_conv.im2col`): each
        cache-sized batch block is gathered in **K-major** staging
        layout — one contiguous destination plane per (channel, ki, kj)
        column, near-memcpy strided copies instead of the cache-hostile
        position-major transpose — then transposed, still
        cache-resident, into the standard position-major column matrix.
        Small feature maps skip the staging and copy position-major
        directly.
    ``grouped``
        Grouped/depthwise convolutions gather the same column matrix
        and keep the batched-einsum formulation of the autograd op.

    Every tier hands BLAS the *identical* GEMM the module forward
    performs — the same column-matrix values in the same memory layout
    with the same shapes — so results are bit-exact by construction on
    any BLAS backend, not merely on the one this machine happens to
    link (enforced per tier by ``tests/runtime``).

    The BatchNorm epilogue runs on the GEMM output while it is still in
    channels-last ``(positions, channels)`` layout — per-channel
    vectors broadcast along rows for free — and the activation runs on
    the final NCHW buffer (bound arrays of any granularity broadcast
    there).  Elementwise ops are layout-independent, so both fusions
    stay bit-exact with the unfused module chain.

    ``gemm_workers > 1`` (set via ``InferencePlan.set_gemm_workers``)
    partitions the column-matrix assembly feeding each GEMM over the
    shared thread pool; workers fill disjoint slices, so the GEMM input
    — and therefore the output — is byte-identical to the serial
    schedule (see the module-level note on why the BLAS call itself is
    never split).
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
        self.gemm_workers = 1
        if conv.groups != 1:
            self.tier = "grouped"
        elif conv.kernel_size == (1, 1) and conv.padding == (0, 0):
            self.tier = "direct1x1"
        else:
            self.tier = "im2col"

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

    # ------------------------------------------------------------------
    # GEMM tiers (all write the channels-last (positions, out) buffer)
    # ------------------------------------------------------------------
    def _workers_for(self, positions: int, k: int, out_channels: int) -> int:
        if self.gemm_workers <= 1:
            return 1
        if positions * k < GEMM_THREAD_MIN_WORK:
            return 1
        return self.gemm_workers

    def _run_direct1x1(
        self, x: np.ndarray, gemm: np.ndarray, oh: int, ow: int
    ) -> None:
        conv = self.conv
        prof = self.prof
        n, c = x.shape[:2]
        sh, sw = conv.stride
        view = x if (sh, sw) == (1, 1) else x[:, :, ::sh, ::sw]
        cols = self.bufs.get("cols1x1", (n, oh, ow, c))
        nhwc = view.transpose(0, 2, 3, 1)
        workers = self._workers_for(n * oh * ow, c, conv.out_channels)
        started = prof.now() if prof is not None else 0.0
        if workers <= 1 or n < 2:
            np.copyto(cols, nhwc)
        else:
            _run_partitioned(
                [
                    (lambda r0=r0, r1=r1: np.copyto(
                        cols[r0:r1], nhwc[r0:r1]
                    ))
                    for r0, r1 in _row_ranges(n, workers)
                ]
            )
        if prof is not None:
            prof.phase(self, "gather", started, prof.now())
            started = prof.now()
        np.matmul(cols.reshape(n * oh * ow, c), conv.weight.data.reshape(
            conv.out_channels, c
        ).T, out=gemm)
        if prof is not None:
            prof.phase(self, "gemm", started, prof.now())

    def _fill_cols(
        self,
        cols: np.ndarray,
        padded: np.ndarray,
        oh: int,
        ow: int,
        workers: int,
    ) -> None:
        """Build the position-major column matrix the module GEMM reads.

        The gather is the autograd op's own :func:`im2col` (blocked
        K-major staging for large feature maps, a direct position-major
        copy for small ones), so the column bytes match the module's.
        ``workers > 1`` deals the batch blocks round-robin onto the
        shared pool; blocks own disjoint rows, so the bytes do not
        change.
        """
        conv = self.conv
        n, c = padded.shape[:2]
        kh, kw = conv.kernel_size
        per_image = oh * ow
        ranges = im2col_blocks(n, c * kh * kw, per_image, padded.dtype.itemsize)
        workers = min(workers, len(ranges))
        if workers <= 1 or per_image < KMAJOR_MIN_AREA:
            # The ragged tail gets its own (smaller) staging buffer;
            # _Buffers keys by shape, so at most two exist.
            im2col(
                padded,
                (kh, kw),
                conv.stride,
                oh,
                ow,
                out=cols,
                staging=lambda shape: self.bufs.get("colsT", shape),
            )
            return
        # Buffers are allocated here (the _Buffers dict is not
        # thread-safe) and each slot reuses its own, so concurrent
        # gathers never collide.
        slots: list[list] = [[] for _ in range(workers)]
        for index, (b0, b1) in enumerate(ranges):
            slot = index % workers
            colsT = self.bufs.get(("colsT", slot), (c, kh, kw, b1 - b0, oh, ow))
            slots[slot].append((b0, b1, colsT))

        def run_slot(assigned: list) -> None:
            for b0, b1, colsT in assigned:
                gather_block(cols, colsT, padded, b0, b1, conv.stride)

        _run_partitioned(
            [lambda a=assigned: run_slot(a) for assigned in slots if assigned]
        )

    def _run_im2col(
        self, padded: np.ndarray, gemm: np.ndarray, oh: int, ow: int
    ) -> None:
        conv = self.conv
        prof = self.prof
        n, c = padded.shape[:2]
        kh, kw = conv.kernel_size
        k = c * kh * kw
        positions = n * oh * ow
        cols = self.bufs.get("cols", (positions, k))
        workers = self._workers_for(positions, k, conv.out_channels)
        started = prof.now() if prof is not None else 0.0
        self._fill_cols(cols, padded, oh, ow, workers)
        if prof is not None:
            prof.phase(self, "gather", started, prof.now())
            started = prof.now()
        # One full-shape GEMM, exactly the module's call (BLAS threads
        # it natively on multi-core machines; see module-level note).
        if self.tier == "im2col":
            np.matmul(cols, conv.weight.data.reshape(conv.out_channels, -1).T, out=gemm)
        else:
            groups = conv.groups
            og = conv.out_channels // groups
            np.einsum(
                "pgk,gok->pgo",
                cols.reshape(positions, groups, k // groups),
                conv.weight.data.reshape(groups, og, k // groups),
                out=gemm.reshape(positions, groups, og),
            )
        if prof is not None:
            prof.phase(self, "gemm", started, prof.now())

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        conv = self.conv
        n, c, h, w = x.shape
        kh, kw = conv.kernel_size
        sh, sw = conv.stride
        ph, pw = conv.padding
        out_channels = conv.out_channels
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        positions = n * oh * ow
        gemm = self.bufs.get("gemm", (positions, out_channels))

        if self.tier == "direct1x1":
            self._run_direct1x1(x, gemm, oh, ow)
        else:
            if ph or pw:
                prof = self.prof
                started = prof.now() if prof is not None else 0.0
                padded = self.bufs.get(
                    "padded", (n, c, h + 2 * ph, w + 2 * pw), fill=0.0
                )
                padded[:, :, ph : ph + h, pw : pw + w] = x
                if prof is not None:
                    # The border copy assembles GEMM input: gather time.
                    prof.phase(self, "gather", started, prof.now())
            else:
                padded = x
            self._run_im2col(padded, gemm, oh, ow)
        if conv.bias is not None:
            gemm += conv.bias.data
        if self.bn is not None:
            self.bn.apply_vectors(gemm)
        out = self.bufs.get("out", (n, out_channels, oh, ow))
        np.copyto(out, gemm.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2))
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs)
        return out

    def describe(self) -> str:
        parts = [f"conv{self.conv.kernel_size}"]
        if self.bn is not None:
            parts.append("bn")
        if self.act is not None:
            parts.append(type(self.act).__name__)
        tag = self.tier
        if self.gemm_workers > 1:
            tag += f"@{self.gemm_workers}"
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
        # No gather stage to thread here: the input already is the GEMM
        # operand, and the BLAS call must stay whole for bit-exactness.
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
            self.bn.apply_vectors(out)
        if self.act is not None:
            apply_activation(self.act, out, out, self.bufs)
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

    def run(self, x: np.ndarray) -> np.ndarray:
        out = self.bufs.get("out", x.shape[:2])
        return np.mean(x, axis=(2, 3), out=out)


class FlattenKernel(Kernel):
    """Collapse trailing dims (a view on the contiguous input buffer)."""

    def __init__(self, start_dim: int) -> None:
        self.start_dim = int(start_dim)

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[: self.start_dim] + (-1,))


class ActivationKernel(Kernel):
    """A standalone activation step (input is another kernel's output)."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.bufs = _Buffers()

    def source_modules(self) -> "tuple[Module, ...]":
        return (self.module,)

    def run(self, x: np.ndarray) -> np.ndarray:
        if isinstance(self.module, Identity):
            return x
        out = self.bufs.get("out", x.shape)
        return apply_activation(self.module, x, out, self.bufs)

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
            apply_activation(self.act, out, out, self.bufs)
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
