"""Differentiable operation base class.

Every primitive op is a :class:`Function` subclass implementing
``forward`` (on raw numpy arrays) and ``backward`` (returning one gradient
array — or ``None`` — per tensor input, in positional order).
:meth:`Function.apply` handles unwrapping tensors, recording which inputs
need a gradient, running the forward, and linking the result into the
autograd graph when recording is enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.autograd.grad_mode import is_grad_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autograd.tensor import Tensor

__all__ = ["Function", "unbroadcast"]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes.

    Elementwise ops broadcast their inputs; the gradient w.r.t. an input
    must therefore be summed over every axis the forward pass broadcast.

    >>> unbroadcast(np.ones((4, 3)), (3,)).tolist()
    [4.0, 4.0, 4.0]
    """
    if grad.shape == tuple(shape):
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    squeeze_axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze_axes:
        grad = grad.sum(axis=squeeze_axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable primitives.

    Subclasses implement:

    - ``forward(*raw_args, **kwargs) -> np.ndarray`` where tensor inputs
      arrive as raw ``np.ndarray`` and other arguments pass through.
      Intermediate values needed by the backward pass are stashed with
      :meth:`save_for_backward` or as attributes on ``self``.
    - ``backward(grad_out) -> tuple[np.ndarray | None, ...]`` returning one
      entry per *tensor* input, in the positional order they were passed.

    ``needs_input_grad`` holds one bool per tensor input, set by
    :meth:`apply` *before* ``forward`` runs: True when gradients are
    being recorded and that input requires grad.  ``backward`` may (and
    the built-in ops do) return ``None`` where ``needs_input_grad`` is
    False, and ``forward`` may skip saving what only those gradients
    would read — a frozen weight's convolution then keeps no column
    matrix.  Returning every gradient stays correct: entries for inputs
    that need none are discarded.
    """

    def __init__(self) -> None:
        self.parents: tuple["Tensor", ...] = ()
        self.saved: tuple[np.ndarray, ...] = ()
        self.needs_input_grad: tuple[bool, ...] = ()

    def save_for_backward(self, *arrays: np.ndarray) -> None:
        self.saved = arrays

    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        """Run the op, wrapping the result in a Tensor linked to the graph."""
        from repro.autograd.tensor import Tensor

        fn = cls()
        tensor_inputs = [a for a in args if isinstance(a, Tensor)]
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        recording = is_grad_enabled()
        fn.needs_input_grad = tuple(
            recording and t.requires_grad for t in tensor_inputs
        )
        out_data = fn.forward(*raw_args, **kwargs)
        needs_grad = any(fn.needs_input_grad)
        out = Tensor(out_data, requires_grad=needs_grad)
        if needs_grad:
            fn.parents = tuple(tensor_inputs)
            out._fn = fn
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__}>"
