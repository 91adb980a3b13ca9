"""Ops compute only the gradients their inputs need.

``Function.apply`` records ``needs_input_grad`` before the forward; the
built-in ops return ``None`` for inputs that need no gradient, a
frozen-weight convolution keeps no column matrix (and so runs its
K-major forward in blocks of images), and eval-mode BatchNorm computes
no affine gradient for frozen parameters.  None of this may change a
gradient that *is* needed: FitAct's bound gradients must be bitwise
equal with the weights frozen or trainable, on every registry model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.function import Function
from repro.autograd.ops_basic import _Add, _Div, _MatMul, _Mul, _Sub
from repro.autograd.ops_conv import conv2d
from repro.core import ProtectionConfig, protect_model
from repro.core.fitrelu import FitReLU
from repro.data import ArrayDataset, DataLoader
from repro.models.registry import MODEL_NAMES, build_model
from repro.nn.loss import CrossEntropyLoss


def _fitact_model(name, image_size, scale):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3, image_size, image_size)).astype(np.float32)
    y = rng.integers(0, 10, size=16)
    model = build_model(name, num_classes=10, scale=scale, image_size=image_size, seed=0)
    protect_model(
        model, DataLoader(ArrayDataset(x, y), batch_size=16), ProtectionConfig("fitact")
    )
    model.eval()
    return model, x, y


def _bound_grads(model, x, y, frozen):
    bounds = [m.bound for m in model.modules() if isinstance(m, FitReLU)]
    bound_ids = {id(b) for b in bounds}
    for param in model.parameters():
        param.grad = None
        if id(param) not in bound_ids:
            param.requires_grad = not frozen
    CrossEntropyLoss()(model(Tensor(x)), y).backward()
    weights_got_grads = any(
        p.grad is not None for p in model.parameters() if id(p) not in bound_ids
    )
    return [b.grad.copy() for b in bounds], weights_got_grads


@pytest.mark.parametrize(
    "name,image_size,scale",
    [
        ("lenet", 16, 1.0),
        ("vgg16", 32, 0.0625),
        *((name, 32, 0.0625) for name in MODEL_NAMES if name not in ("lenet", "vgg16")),
    ],
)
def test_bound_grads_bitwise_equal_frozen_or_trainable(name, image_size, scale):
    """Frozen weights take the blocked conv forward; trainable ones the
    whole-batch forward, which keeps its columns for the weight
    gradient."""
    model, x, y = _fitact_model(name, image_size, scale)
    trainable, weights_trained = _bound_grads(model, x, y, frozen=False)
    frozen, weights_frozen = _bound_grads(model, x, y, frozen=True)
    assert weights_trained and not weights_frozen
    assert len(frozen) == len(trainable) > 0
    for a, b in zip(frozen, trainable):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _conv_node(x_grad, w_grad, b_grad, groups=1):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32), requires_grad=x_grad)
    w = Tensor(
        rng.standard_normal((6, 4 // groups, 3, 3)).astype(np.float32),
        requires_grad=w_grad,
    )
    b = Tensor(np.zeros(6, np.float32), requires_grad=b_grad)
    out = conv2d(x, w, b, padding=1, groups=groups)
    return out, out._fn


@pytest.mark.parametrize("groups", [1, 2])
def test_frozen_conv_keeps_no_columns_and_skips_weight_grads(groups):
    out, fn = _conv_node(True, False, False, groups)
    assert fn.needs_input_grad == (True, False, False)
    assert fn.cols is None
    grad_x, grad_w, grad_b = fn.backward(np.ones_like(out.data))
    assert grad_x is not None and grad_x.shape == (2, 4, 8, 8)
    assert grad_w is None and grad_b is None


@pytest.mark.parametrize("groups", [1, 2])
def test_trainable_conv_returns_every_gradient(groups):
    out, fn = _conv_node(True, True, True, groups)
    assert fn.cols is not None
    grads = fn.backward(np.ones_like(out.data))
    assert [g.shape for g in grads] == [(2, 4, 8, 8), (6, 4 // groups, 3, 3), (6,)]


def test_weight_only_conv_skips_input_grad():
    out, fn = _conv_node(False, True, False)
    assert fn.weight is None
    grad_x, grad_w, grad_b = fn.backward(np.ones_like(out.data))
    assert grad_x is None and grad_b is None and grad_w is not None


def test_no_grad_conv_records_nothing():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((2, 1, 3, 3)).astype(np.float32), requires_grad=True)
    with no_grad():
        out = conv2d(Tensor(np.ones((1, 1, 5, 5), np.float32)), w)
    assert out._fn is None and not out.requires_grad


@pytest.mark.parametrize("op", [_Add, _Sub, _Mul, _Div, _MatMul])
def test_binary_ops_return_none_for_constants(op):
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 3)) + 2.0, requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)) + 2.0)
    out = op.apply(a, b)
    assert out._fn.needs_input_grad == (True, False)
    grad_a, grad_b = out._fn.backward(np.ones((3, 3)))
    assert grad_a is not None and grad_b is None
    out = op.apply(b, a)
    grad_b, grad_a = out._fn.backward(np.ones((3, 3)))
    assert grad_a is not None and grad_b is None


class _FullGradMul(Function):
    """A user op in the documented style: returns every gradient."""

    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad_out):
        a, b = self.saved
        return grad_out * b, grad_out * a


def test_user_function_returning_every_gradient_still_works():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0]))
    _FullGradMul.apply(a, b).sum().backward()
    np.testing.assert_array_equal(a.grad, [4.0, 5.0, 6.0])
    assert b.grad is None
