"""The :class:`Tensor` — a numpy array with reverse-mode autodiff.

A tensor produced by a differentiable op points (``_fn``) at the
:class:`~repro.autograd.function.Function` that produced it, and the
graph is made of those Functions: each links to the Functions that
produced its inputs, and to the leaf tensors (parameters) that require
a gradient.  Intermediate tensors are not part of the graph, so an
activation that no backward reads dies as soon as the forward moves
past it.

Calling :meth:`Tensor.backward` on a scalar output walks the graph in
reverse topological order and accumulates gradients into the ``.grad``
of every *leaf* tensor that requires them (mirroring PyTorch's
convention that intermediate gradients are not retained).  Backward
consumes the graph as it goes: each Function is released once its own
backward has run, so activations die during backward and nothing of the
step outlives it.  A second backward through a consumed graph raises
:class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autograd.function import Function

__all__ = ["Tensor", "as_tensor"]

DEFAULT_DTYPE = np.float32

ArrayLike = Any  # anything np.asarray accepts


class Tensor:
    """A multi-dimensional array supporting reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Integer input is converted to the
        default float dtype unless ``dtype`` says otherwise.
    requires_grad:
        Whether gradients should be accumulated into this tensor's
        ``.grad`` during :meth:`backward`.
    dtype:
        Optional explicit numpy dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "_fn")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: np.dtype | type | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        was_ndarray = isinstance(data, (np.ndarray, np.generic))
        array = np.asarray(data, dtype=dtype)
        if dtype is None:
            if array.dtype.kind in "iub":
                array = array.astype(DEFAULT_DTYPE)
            elif not was_ndarray and array.dtype == np.float64:
                # Python floats default to the library dtype; explicit
                # ndarrays keep theirs (float64 gradchecks rely on this).
                array = array.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._fn: "Function | None" = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        """True when this tensor was not produced by a differentiable op."""
        return self._fn is None

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_note})"

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        out = Tensor(self.data)
        out.requires_grad = False
        return out

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return out

    def astype(self, dtype: np.dtype | type) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=False)

    # ------------------------------------------------------------------
    # Gradient management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (valid only for single-element outputs,
        matching the usual scalar-loss convention).
        """
        if not self.requires_grad:
            raise GraphError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise GraphError(
                    f"backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise GraphError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        root: "Tensor | Function" = self if self._fn is None else self._fn
        order = _topological_order(root)
        pending: dict[int, np.ndarray] = {id(root): grad}
        while order:
            node = order.pop()
            node_grad = pending.pop(id(node), None)
            if isinstance(node, Tensor):
                if node_grad is not None and node.requires_grad:
                    node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            if node_grad is None:
                node.release()
                continue
            parents = node.parents
            parent_grads = node.backward(node_grad)
            node.release()
            if len(parent_grads) != len(parents):
                raise GraphError(
                    f"{type(node).__name__}.backward returned "
                    f"{len(parent_grads)} gradients for {len(parents)} inputs"
                )
            for parent, parent_grad in zip(parents, parent_grads):
                if parent is None or parent_grad is None:
                    continue
                parent_grad = np.asarray(parent_grad)
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + parent_grad
                else:
                    pending[key] = parent_grad

    # ------------------------------------------------------------------
    # Arithmetic operators (implemented in ops modules, bound lazily below)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.sub(as_tensor(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.div(as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.pow(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.matmul(self, other)

    def __getitem__(self, index: Any) -> "Tensor":
        from repro.autograd import ops_shape

        return ops_shape.getitem(self, index)

    # Comparisons yield raw boolean arrays (no gradient flows through them).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _raw(other)

    # ------------------------------------------------------------------
    # Method-style ops
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops_reduce

        return ops_reduce.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops_reduce

        return ops_reduce.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops_reduce

        return ops_reduce.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops_reduce

        return ops_reduce.min(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.autograd import ops_shape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops_shape.reshape(self, shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        from repro.autograd import ops_shape

        return ops_shape.transpose(self, axes)

    def exp(self) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.exp(self)

    def log(self) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.log(self)

    def sqrt(self) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.sqrt(self)

    def abs(self) -> "Tensor":
        from repro.autograd import ops_basic

        return ops_basic.abs(self)

    def sigmoid(self) -> "Tensor":
        from repro.autograd import ops_nn

        return ops_nn.sigmoid(self)

    def tanh(self) -> "Tensor":
        from repro.autograd import ops_nn

        return ops_nn.tanh(self)

    def relu(self) -> "Tensor":
        from repro.autograd import ops_nn

        return ops_nn.relu(self)


def _topological_order(root: "Tensor | Function") -> list["Tensor | Function"]:
    """Iterative post-order DFS over the graph rooted at ``root``.

    Raises :class:`GraphError` on reaching a Function an earlier
    backward consumed, before any gradient is computed.
    """
    order: list[Tensor | Function] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor | Function, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if isinstance(node, Tensor):
            continue
        if node.consumed:
            raise GraphError(
                f"backward() through a consumed {type(node).__name__}: an "
                f"earlier backward() already ran through this graph and freed it"
            )
        for parent in node.parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _raw(value: ArrayLike) -> np.ndarray | float:
    return value.data if isinstance(value, Tensor) else value


def as_tensor(value: ArrayLike, dtype: np.dtype | type | None = None) -> Tensor:
    """Coerce ``value`` to a Tensor (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
