"""Neural-network primitives: activations and stable (log-)softmax."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "leaky_relu",
    "log_softmax",
    "relu",
    "sigmoid",
    "sigmoid_into",
    "softmax",
    "tanh",
]


class _ReLU(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (mask,) = self.saved
        return (grad_out * mask,)


class _LeakyReLU(Function):
    def forward(self, a: np.ndarray, negative_slope: float) -> np.ndarray:
        self.slope = float(negative_slope)
        mask = a > 0
        self.save_for_backward(mask)
        return np.where(mask, a, self.slope * a)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (mask,) = self.saved
        return (np.where(mask, grad_out, self.slope * grad_out),)


def sigmoid_into(
    a: np.ndarray,
    out: np.ndarray,
    e: np.ndarray | None = None,
    d: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Numerically stable logistic sigmoid of ``a``, written into ``out``.

    With ``e = exp(-|a|)`` and ``d = 1 + e``, the result is ``1/d`` where
    ``a >= 0`` and ``e/d`` elsewhere: ``exp`` never sees a positive
    argument, so it cannot overflow.  Both branches are evaluated over
    the whole array and merged with a ufunc ``where=``, never with
    boolean fancy indexing.  ``-|a|`` is taken as ``minimum(a, -a)``,
    which keeps a NaN input's own bits, so every element (NaN included)
    equals the two-branch piecewise formula bit for bit.

    ``out`` may alias ``a``: ``a`` is read in full before ``out`` is
    written.  ``e`` and ``d`` (same shape and dtype as ``a``) and the
    boolean ``mask`` are optional scratch arrays; missing ones are
    allocated.  When ``out`` does not alias ``a``, ``e`` may be ``out``
    and ``d`` may be ``a`` (which is then overwritten), so a caller
    with a disposable input needs no float scratch at all.
    """
    mask = np.greater_equal(a, 0, out=mask)
    e = np.negative(a, out=e)
    np.minimum(a, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=d)
    np.divide(e, d, out=out)
    np.divide(1.0, d, out=out, where=mask)
    return out


class _Sigmoid(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = sigmoid_into(a, np.empty_like(a))
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        return (grad_out * out * (1.0 - out),)


class _Tanh(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        return (grad_out * (1.0 - out * out),)


class _LogSoftmax(Function):
    """Log-softmax along ``axis`` via the logsumexp trick."""

    def forward(self, a: np.ndarray, axis: int) -> np.ndarray:
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_norm
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        softmax = np.exp(out)
        return (grad_out - softmax * grad_out.sum(axis=self.axis, keepdims=True),)


class _Softmax(Function):
    def forward(self, a: np.ndarray, axis: int) -> np.ndarray:
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        inner = (grad_out * out).sum(axis=self.axis, keepdims=True)
        return (out * (grad_out - inner),)


def relu(a: Any) -> Tensor:
    """``max(0, x)`` — the baseline activation the paper hardens."""
    return _ReLU.apply(as_tensor(a))


def leaky_relu(a: Any, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    return _LeakyReLU.apply(as_tensor(a), negative_slope)


def sigmoid(a: Any) -> Tensor:
    """Numerically stable logistic sigmoid (``exp`` never overflows, so
    faulty activations of ~1e4 are safe)."""
    return _Sigmoid.apply(as_tensor(a))


def tanh(a: Any) -> Tensor:
    """Hyperbolic tangent."""
    return _Tanh.apply(as_tensor(a))


def log_softmax(a: Any, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    return _LogSoftmax.apply(as_tensor(a), axis)


def softmax(a: Any, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    return _Softmax.apply(as_tensor(a), axis)
