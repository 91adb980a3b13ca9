"""Batch normalisation layers.

Training mode is composed from autograd primitives (mean/var/rsqrt), so
its backward pass is derived automatically and verified by gradcheck in
``tests/nn/test_norm.py``.  Eval mode normalises with the running
statistics in one fused op: :func:`batchnorm_into`'s four elementwise
passes forward, over the constants :func:`batchnorm_constants`
computes, and the composed form's gradients back — ``(g·w)·inv_std``
for the input, the normalised input's reductions for the affine
parameters, computed only when asked for (FitAct's bound post-training
freezes them).  The compiled runtime's folded BatchNorm calls the same
two functions, so module and plan agree bit for bit by construction.
Running statistics live in *buffers*: they are saved with the model but
are outside the paper's parameter fault space.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function, unbroadcast
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "batchnorm_constants", "batchnorm_into"]


def batchnorm_constants(bn: "_BatchNormBase") -> tuple[np.ndarray, np.ndarray]:
    """Flat eval-mode ``(mean, inv_std)`` of ``bn``: a copy of the
    running mean and ``(running_var + eps) ** -0.5``, the composed
    form's expression (float32 array + float32 scalar, then a
    python-float exponent)."""
    mean = np.array(bn.running_mean, dtype=np.float32).reshape(-1)
    inv_std = (
        np.asarray(bn.running_var, dtype=np.float32).reshape(-1) + np.float32(bn.eps)
    ) ** -0.5
    return mean, inv_std


def batchnorm_into(
    x: np.ndarray,
    mean: np.ndarray,
    inv_std: np.ndarray,
    weight: np.ndarray | None,
    bias: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    """Eval-mode BatchNorm of ``x`` into ``out`` (which may alias ``x``):
    ``((x - mean) * inv_std) * weight + bias``, one pass per operation.
    The per-channel operands are already shaped to broadcast against
    ``x``; ``weight`` and ``bias`` are ``None`` without affine."""
    np.subtract(x, mean, out=out)
    np.multiply(out, inv_std, out=out)
    if weight is not None:
        np.multiply(out, weight, out=out)
        np.add(out, bias, out=out)
    return out


class _EvalBatchNorm(Function):
    """Eval-mode BatchNorm over stat-shaped ``mean`` and ``inv_std``, with
    the gradients of the composed form ``((x - mean) * inv_std) * w + b``
    (the same products and reductions, so the same bytes)."""

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray | None,
        bias: np.ndarray | None,
        mean: np.ndarray,
        inv_std: np.ndarray,
    ) -> np.ndarray:
        operands = [x, mean, inv_std]
        if weight is not None:
            weight, bias = weight.reshape(mean.shape), bias.reshape(mean.shape)
            operands += [weight, bias]
        self.mean, self.inv_std, self.weight = mean, inv_std, weight
        # The weight gradient reads the normalised input, recomputed from x.
        self.x = x if weight is not None and self.needs_input_grad[1] else None
        out = np.empty(x.shape, dtype=np.result_type(*operands))
        return batchnorm_into(x, mean, inv_std, weight, bias, out)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        if self.weight is None:
            return (grad_out * self.inv_std,)
        need_x, need_weight, need_bias = self.needs_input_grad
        grad_x = grad_weight = grad_bias = None
        if need_x:
            grad_x = (grad_out * self.weight) * self.inv_std
        if need_weight:
            normalised = np.empty(grad_out.shape, np.result_type(self.x, self.inv_std))
            batchnorm_into(self.x, self.mean, self.inv_std, None, None, normalised)
            grad_weight = unbroadcast(grad_out * normalised, self.mean.shape)
            grad_weight = grad_weight.reshape(-1)
        if need_bias:
            grad_bias = unbroadcast(grad_out, self.mean.shape).reshape(-1)
        return grad_x, grad_weight, grad_bias


class _BatchNormBase(Module):
    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
    ) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.affine = bool(affine)
        if affine:
            self.weight = Parameter(np.ones(self.num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(self.num_features, dtype=np.float32))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)
        self.register_buffer("running_mean", np.zeros(self.num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(self.num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    # Subclasses define which axes are reduced and how stats broadcast.
    _reduce_axes: tuple[int, ...] = ()

    def _check_input(self, x: Tensor) -> None:
        raise NotImplementedError

    def _stat_shape(self, ndim: int) -> tuple[int, ...]:
        shape = [1] * ndim
        shape[1] = self.num_features
        return tuple(shape)

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        stat_shape = self._stat_shape(x.ndim)
        if not self.training:
            mean, inv_std = batchnorm_constants(self)
            return _EvalBatchNorm.apply(
                x,
                self.weight,
                self.bias,
                mean.reshape(stat_shape),
                inv_std.reshape(stat_shape),
            )
        mean = x.mean(axis=self._reduce_axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=self._reduce_axes, keepdims=True)
        self._update_running_stats(mean.data, var.data, x)
        out = centered * (var + self.eps) ** -0.5
        if self.affine:
            out = out * self.weight.reshape(stat_shape) + self.bias.reshape(stat_shape)
        return out

    def _update_running_stats(self, mean: np.ndarray, var: np.ndarray, x: Tensor) -> None:
        count = x.size // self.num_features
        # Running var uses the unbiased estimator, matching PyTorch.
        unbiased = var * (count / max(count - 1, 1))
        m = self.momentum
        self._update_buffer(
            "running_mean",
            ((1 - m) * self.running_mean + m * mean.reshape(-1)).astype(np.float32),
        )
        self._update_buffer(
            "running_var",
            ((1 - m) * self.running_var + m * unbiased.reshape(-1)).astype(np.float32),
        )
        self._update_buffer("num_batches_tracked", self.num_batches_tracked + 1)

    def extra_repr(self) -> str:
        return (
            f"{self.num_features}, eps={self.eps}, momentum={self.momentum}, "
            f"affine={self.affine}"
        )


class BatchNorm2d(_BatchNormBase):
    """Batch normalisation over NCHW feature maps (per-channel stats)."""

    _reduce_axes = (0, 2, 3)

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ShapeError(f"BatchNorm2d expects NCHW input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expects {self.num_features} channels, got {x.shape[1]}"
            )


class BatchNorm1d(_BatchNormBase):
    """Batch normalisation over (N, F) feature vectors."""

    _reduce_axes = (0,)

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 2:
            raise ShapeError(f"BatchNorm1d expects (N, F) input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expects {self.num_features} features, got {x.shape[1]}"
            )
