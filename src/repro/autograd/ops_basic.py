"""Elementwise arithmetic and matmul primitives with analytic gradients."""

from __future__ import annotations

import builtins
from typing import Any

import numpy as np

from repro.autograd.function import Function, unbroadcast
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError

__all__ = [
    "abs",
    "add",
    "div",
    "exp",
    "log",
    "matmul",
    "maximum",
    "minimum",
    "mul",
    "neg",
    "pow",
    "sqrt",
    "sub",
    "where",
]


class _Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = a.shape, b.shape
        return a + b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out, self.a_shape) if need_a else None,
            unbroadcast(grad_out, self.b_shape) if need_b else None,
        )


class _Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = a.shape, b.shape
        return a - b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out, self.a_shape) if need_a else None,
            unbroadcast(-grad_out, self.b_shape) if need_b else None,
        )


class _Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        return (
            unbroadcast(grad_out * b, a.shape) if need_a else None,
            unbroadcast(grad_out * a, b.shape) if need_b else None,
        )


class _Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        grad_a = unbroadcast(grad_out / b, a.shape) if need_a else None
        grad_b = unbroadcast(-grad_out * a / (b * b), b.shape) if need_b else None
        return grad_a, grad_b


class _Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        return (-grad_out,)


class _Pow(Function):
    """Tensor raised to a *constant* scalar exponent."""

    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.exponent = float(exponent)
        self.save_for_backward(a)
        return a**self.exponent

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (a,) = self.saved
        return (grad_out * self.exponent * a ** (self.exponent - 1.0),)


class _Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        return (grad_out * out,)


class _Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (a,) = self.saved
        return (grad_out / a,)


class _Sqrt(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (out,) = self.saved
        return (grad_out / (2.0 * out),)


class _Abs(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(np.sign(a))
        return np.abs(a)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (sign,) = self.saved
        return (grad_out * sign,)


class _Maximum(Function):
    """Elementwise max; ties send the full gradient to the first input
    (a fixed subgradient choice, matching ``np.maximum`` result identity)."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask = a >= b
        self.save_for_backward(mask)
        self.a_shape, self.b_shape = a.shape, b.shape
        return np.maximum(a, b)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (mask,) = self.saved
        grad_a = unbroadcast(grad_out * mask, self.a_shape)
        grad_b = unbroadcast(grad_out * ~mask, self.b_shape)
        return grad_a, grad_b


class _Minimum(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask = a <= b
        self.save_for_backward(mask)
        self.a_shape, self.b_shape = a.shape, b.shape
        return np.minimum(a, b)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (mask,) = self.saved
        grad_a = unbroadcast(grad_out * mask, self.a_shape)
        grad_b = unbroadcast(grad_out * ~mask, self.b_shape)
        return grad_a, grad_b


class _Where(Function):
    """``where(cond, a, b)`` with a non-differentiable boolean condition."""

    def forward(self, condition: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(condition)
        self.a_shape, self.b_shape = a.shape, b.shape
        return np.where(condition, a, b)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (condition,) = self.saved
        grad_a = unbroadcast(grad_out * condition, self.a_shape)
        grad_b = unbroadcast(grad_out * ~condition, self.b_shape)
        return grad_a, grad_b


class _MatMul(Function):
    """Matrix product supporting 2-D and batched (>2-D) operands."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(
                f"matmul requires >=2-D operands, got {a.ndim}-D and {b.ndim}-D"
            )
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        a, b = self.saved
        need_a, need_b = self.needs_input_grad
        # Batched matmul broadcasts leading dims; fold them back.
        grad_a = (
            unbroadcast(grad_out @ np.swapaxes(b, -1, -2), a.shape) if need_a else None
        )
        grad_b = (
            unbroadcast(np.swapaxes(a, -1, -2) @ grad_out, b.shape) if need_b else None
        )
        return grad_a, grad_b


def add(a: Any, b: Any) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    return _Add.apply(as_tensor(a), as_tensor(b))


def sub(a: Any, b: Any) -> Tensor:
    """Elementwise ``a - b`` with numpy broadcasting."""
    return _Sub.apply(as_tensor(a), as_tensor(b))


def mul(a: Any, b: Any) -> Tensor:
    """Elementwise ``a * b`` with numpy broadcasting."""
    return _Mul.apply(as_tensor(a), as_tensor(b))


def div(a: Any, b: Any) -> Tensor:
    """Elementwise ``a / b`` with numpy broadcasting."""
    return _Div.apply(as_tensor(a), as_tensor(b))


def neg(a: Any) -> Tensor:
    """Elementwise negation."""
    return _Neg.apply(as_tensor(a))


def pow(a: Any, exponent: float) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Raise a tensor to a constant scalar ``exponent``."""
    return _Pow.apply(as_tensor(a), float(exponent))


def exp(a: Any) -> Tensor:
    """Elementwise natural exponential."""
    return _Exp.apply(as_tensor(a))


def log(a: Any) -> Tensor:
    """Elementwise natural logarithm."""
    return _Log.apply(as_tensor(a))


def sqrt(a: Any) -> Tensor:
    """Elementwise square root."""
    return _Sqrt.apply(as_tensor(a))


def abs(a: Any) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient 0 at the kink)."""
    return _Abs.apply(as_tensor(a))


def maximum(a: Any, b: Any) -> Tensor:
    """Elementwise maximum of two tensors (or tensor and scalar)."""
    return _Maximum.apply(as_tensor(a), as_tensor(b))


def minimum(a: Any, b: Any) -> Tensor:
    """Elementwise minimum of two tensors (or tensor and scalar)."""
    return _Minimum.apply(as_tensor(a), as_tensor(b))


def where(condition: Any, a: Any, b: Any) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean array — no gradient flows through it.
    """
    condition = np.asarray(condition.data if isinstance(condition, Tensor) else condition)
    if condition.dtype != builtins.bool and condition.dtype != np.bool_:
        condition = condition.astype(np.bool_)
    return _Where.apply(condition, as_tensor(a), as_tensor(b))


def matmul(a: Any, b: Any) -> Tensor:
    """Matrix multiply ``a @ b`` (2-D or batched)."""
    return _MatMul.apply(as_tensor(a), as_tensor(b))
