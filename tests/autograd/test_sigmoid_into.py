"""``sigmoid_into`` equals the boolean-mask piecewise sigmoid bit for bit.

The reference is the previous implementation of ``_Sigmoid.forward``
(and of the runtime's copy of it), kept verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.ops_nn import sigmoid, sigmoid_into
from repro.autograd.tensor import Tensor

DTYPES = [np.float32, np.float64]


def _reference_sigmoid(a):
    out = np.empty_like(a)
    positive = a >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-a[positive]))
    exp_a = np.exp(a[~positive])
    out[~positive] = exp_a / (1.0 + exp_a)
    return out


def _inputs(dtype, size=4099):
    """Random values around 0, large magnitudes, and every special."""
    rng = np.random.default_rng(0)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 101.0, -101.0, 1e4, -1e4,
         709.0, -745.0, 1e30, -1e30, 88.7, -103.9],
        dtype=dtype,
    )
    # NaNs with payloads, positive and negative.
    payloads = np.array([0x7FC00123, 0xFFC00456], dtype=np.uint32).view(np.float32)
    values = np.concatenate(
        [
            np.tile(specials, 5),
            payloads.astype(dtype),
            (rng.standard_normal(size) * 30).astype(dtype),
            np.finfo(dtype).tiny * np.array([1, -1], dtype=dtype),
            np.array([np.finfo(dtype).max, np.finfo(dtype).min], dtype=dtype),
        ]
    )
    rng.shuffle(values)
    return values.reshape(-1, 1)[: values.size - values.size % 3].reshape(3, -1)


@pytest.mark.parametrize("dtype", DTYPES)
def test_matches_boolean_mask_reference(dtype):
    a = _inputs(dtype)
    expected = _reference_sigmoid(a)
    out = sigmoid_into(a, np.empty_like(a))
    assert out.dtype == dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_out_may_alias_input(dtype):
    a = _inputs(dtype)
    expected = _reference_sigmoid(a)
    result = sigmoid_into(a, a)
    assert result is a
    assert a.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_scratch_arrays_are_used_and_input_is_untouched(dtype):
    a = _inputs(dtype)
    before = a.tobytes()
    e, d = np.empty_like(a), np.empty_like(a)
    mask = np.empty(a.shape, dtype=np.bool_)
    out = sigmoid_into(a, np.empty_like(a), e=e, d=d, mask=mask)
    assert a.tobytes() == before
    assert out.tobytes() == _reference_sigmoid(a).tobytes()
    np.testing.assert_array_equal(mask, a >= 0)


@pytest.mark.parametrize("dtype", DTYPES)
def test_scratch_may_reuse_out_and_a_disposable_input(dtype):
    """The runtime's FitReLU epilogue: e is out, d is the input."""
    a = _inputs(dtype)
    expected = _reference_sigmoid(a)
    out = np.empty_like(a)
    sigmoid_into(a, out, e=out, d=a)
    assert out.tobytes() == expected.tobytes()


def test_strided_input_view():
    a = _inputs(np.float32)[:, ::3]
    out = sigmoid_into(a, np.empty_like(a))
    assert out.tobytes() == _reference_sigmoid(np.ascontiguousarray(a)).tobytes()


def test_op_forward_uses_the_same_bits():
    a = _inputs(np.float32)
    assert sigmoid(Tensor(a)).data.tobytes() == _reference_sigmoid(a).tobytes()
