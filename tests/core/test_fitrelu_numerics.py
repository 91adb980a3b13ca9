"""FitReLU's tanh form against a float64 reference, and its fused backward.

The reference is the reconciled Eq. 6, ``max(0, x·σ(k(λ − x)/λ))`` in
relative mode and ``max(0, x·σ(k(λ − x)))`` in absolute mode, evaluated
in float64 with scipy's ``expit``.  The float32 tanh form
``max(0, x·½(1 + tanh(a·(λ − x))))`` stays within
``2⁻²²·max(|x|, λ)`` of it (measured: under 1e-7·max(|x|, λ)) over the
pass band, the transition band, far above the bound and at fault
magnitudes.  Where σ is tiny, float32 tanh saturates to −1 and the
output is exactly 0; with numpy's tanh that happens from σ ≈ 2⁻²⁹, and
between there and 2⁻²⁴ the gate is a few float32 ulps instead of σ, an
error far inside the tolerance.
"""

import numpy as np
import pytest
from scipy.special import expit

from repro.autograd import Tensor
from repro.core import FitReLU
from repro.core.fitrelu import fitrelu_into, gate_slope

K = 40.0
MODES = ("relative", "absolute")
#: Tolerance relative to max(|x|, λ): the one rounding of the argument
#: a·(λ − x), float32 tanh's few ulps and the products' roundings.
RTOL = 2.0**-22


def _reference(x, bound, k, mode):
    """Float64 ``(max(0, x·σ(z)), σ(z))`` with z = kᵢ(λ − x)."""
    x64 = np.asarray(x, dtype=np.float64)
    lam = np.asarray(bound, dtype=np.float64)
    slope = k / np.maximum(np.abs(lam), 1e-6) if mode == "relative" else k
    with np.errstate(invalid="ignore", over="ignore"):
        sigma = expit(slope * (lam - x64))
        return np.maximum(0.0, x64 * sigma), sigma


def _tanh_form(x, bound, k, mode):
    x = np.asarray(x, dtype=np.float32)
    bound = np.asarray(bound, dtype=np.float32)
    shape = np.broadcast_shapes(x.shape, bound.shape)
    out = np.empty(shape, dtype=np.float32)
    plane = np.empty(shape, dtype=np.float32)
    with np.errstate(invalid="ignore"):
        return fitrelu_into(x, bound, gate_slope(bound, k, mode), out, plane)


def _bounds_and_inputs(rng, lo, hi, n=20000):
    bound = rng.uniform(0.05, 8.0, n).astype(np.float32)
    x = (bound * rng.uniform(lo, hi, n)).astype(np.float32)
    return bound, x


class TestAgainstFloat64Reference:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "band",
        [(-2.0, 0.0), (0.0, 0.8), (0.8, 1.2), (1.2, 3.0), (3.0, 1e3)],
        ids=["negative", "pass", "transition", "above", "far-above"],
    )
    def test_bands_within_tolerance(self, mode, band):
        bound, x = _bounds_and_inputs(np.random.default_rng(4), *band)
        ours = _tanh_form(x, bound, K, mode)
        ref, _ = _reference(x, bound, K, mode)
        scale = np.maximum(np.abs(x), bound).astype(np.float64)
        assert np.all(np.abs(ours - ref) <= RTOL * scale)

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_magnitudes(self, mode):
        """±1e4 (a flipped high fixed-point bit), ±inf and NaN."""
        bound = np.array([0.3, 1.0, 2.5, 7.0], dtype=np.float32).reshape(4, 1)
        x = np.array([1e4, -1e4, np.inf, -np.inf, np.nan], dtype=np.float32)
        with np.errstate(over="raise"):
            ours = _tanh_form(x, bound, K, mode)
        ref, _ = _reference(x, bound, K, mode)
        finite = np.isfinite(x)
        assert np.array_equal(ours[:, finite], ref[:, finite])
        assert np.all(ours[:, finite] == 0.0)  # squashed or negative
        # NaN stays NaN; +inf·0 is NaN in both forms.
        assert np.isnan(ours[:, 4]).all() and np.isnan(ref[:, 4]).all()
        assert np.isnan(ours[:, 2]).all() and np.isnan(ref[:, 2]).all()
        assert np.all(ours[:, 3] == 0.0) and np.all(ref[:, 3] == 0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_output_is_exactly_zero_where_sigma_vanishes(self, mode):
        bound, x = _bounds_and_inputs(np.random.default_rng(5), 1.0, 4.0)
        ours = _tanh_form(x, bound, K, mode)
        _, sigma = _reference(x, bound, K, mode)
        assert np.all(ours[sigma < 2.0**-32] == 0.0)
        tiny = sigma < 2.0**-24
        assert tiny.any()
        assert np.all(ours[tiny] <= 2.0**-24 * x[tiny])

    @pytest.mark.parametrize("mode", MODES)
    def test_anchors_are_exact(self, mode):
        """ξ(λ) = λ/2 and ξ(0) = 0, bit for bit, for any bound."""
        bound = np.random.default_rng(6).uniform(1e-3, 1e3, 5000).astype(np.float32)
        assert np.array_equal(_tanh_form(bound, bound, K, mode), bound / 2)
        zero = _tanh_form(np.zeros_like(bound), bound, K, mode)
        assert np.array_equal(zero, np.zeros_like(bound))

    def test_module_forward_is_the_tanh_form(self):
        bound = np.random.default_rng(7).uniform(0.2, 3.0, (4, 5, 5)).astype(np.float32)
        x = np.random.default_rng(8).normal(1.0, 2.0, (3, 4, 5, 5)).astype(np.float32)
        for mode in MODES:
            act = FitReLU(bound, k=K, slope_mode=mode)
            expected = _tanh_form(x, bound, K, mode)
            assert act(Tensor(x)).data.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# The fused op's analytic backward against central differences
# ----------------------------------------------------------------------
_GRANULARITIES = {
    "neuron": (3, 4, 4),
    "channel": (3, 1, 1),
    "scalar": (1,),
}


def _float64_act(shape, mode, rng):
    act = FitReLU(rng.uniform(0.5, 2.0, shape), k=K, slope_mode=mode)
    act.bound.data = act.bound.data.astype(np.float64)
    return act


def _inputs(rng, bound):
    """Inputs spread over the pass and transition bands, off the kink at 0."""
    x = np.broadcast_to(bound, (2, 3, 4, 4)) * rng.uniform(0.2, 1.6, (2, 3, 4, 4))
    return np.where(rng.random(x.shape) < 0.2, -x, x)


def _gate_output(x, bound, a):
    out = np.empty(np.broadcast_shapes(x.shape, bound.shape))
    return fitrelu_into(x, bound, a, out, np.empty_like(out))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("granularity", sorted(_GRANULARITIES))
def test_backward_matches_finite_differences(mode, granularity):
    """grad x and grad λ of Σ w·ξ.  In relative mode the slope is held
    constant (the forward detaches its 1/|λ|), so λ is differenced with
    ``a`` frozen at the unperturbed bounds."""
    rng = np.random.default_rng(9)
    act = _float64_act(_GRANULARITIES[granularity], mode, rng)
    bound = act.bound.data
    x = Tensor(_inputs(rng, bound), requires_grad=True)
    weights = rng.standard_normal(x.shape)
    (act(x) * Tensor(weights)).sum().backward()
    a = gate_slope(bound, K, mode)
    h = 1e-6

    def loss(xv, bv):
        return float((_gate_output(xv, bv, a) * weights).sum())

    grad_x = np.zeros_like(x.data)
    for i in np.ndindex(x.shape):
        step = np.zeros_like(x.data)
        step[i] = h
        grad_x[i] = (loss(x.data + step, bound) - loss(x.data - step, bound)) / (2 * h)
    grad_bound = np.zeros_like(bound)
    for i in np.ndindex(bound.shape):
        step = np.zeros_like(bound)
        step[i] = h
        grad_bound[i] = (loss(x.data, bound + step) - loss(x.data, bound - step)) / (
            2 * h
        )
    np.testing.assert_allclose(x.grad, grad_x, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(act.bound.grad, grad_bound, rtol=1e-5, atol=1e-6)


def test_absolute_mode_gradient_is_the_full_derivative():
    """Absolute mode has no detached term: differencing the module itself
    (slope recomputed at each perturbed bound) gives the same grad λ."""
    rng = np.random.default_rng(10)
    act = _float64_act((3, 1, 1), "absolute", rng)
    x = Tensor(_inputs(rng, act.bound.data))
    act(x).sum().backward()
    bound = act.bound.data.copy()
    numeric = np.zeros_like(bound)
    for i in np.ndindex(bound.shape):
        for sign in (1, -1):
            act.bound.data = bound.copy()
            act.bound.data[i] += sign * 1e-6
            numeric[i] += sign * float(act(x).data.sum()) / 2e-6
    np.testing.assert_allclose(act.bound.grad, numeric, rtol=1e-5, atol=1e-6)


def test_input_without_grad_gets_no_grad_x():
    """Post-training's first FitReLU sees an input that needs no grad:
    the op returns None for it instead of computing grad x."""
    act = FitReLU(np.full((2, 3, 3), 1.5, dtype=np.float32))
    x = Tensor(np.random.default_rng(11).uniform(0, 3, (4, 2, 3, 3)).astype(np.float32))
    out = act(x)
    fn = out._fn
    assert fn.needs_input_grad == (False, True)
    grad_x, grad_bound = fn.backward(np.ones_like(out.data))
    assert grad_x is None and grad_bound.shape == (2, 3, 3)
    out.sum().backward()
    assert x.grad is None and act.bound.grad is not None


def test_frozen_bounds_get_no_grad():
    act = FitReLU(np.float32(1.5), trainable=False)
    x = Tensor(np.linspace(-1, 3, 12, dtype=np.float32), requires_grad=True)
    act(x).sum().backward()
    assert x.grad is not None and act.bound.grad is None


def test_backward_keeps_x_the_gate_plane_and_the_mask():
    """The op saves the input itself (no copy), one float plane and a
    boolean mask — and nothing at all when no gradient is recorded."""
    act = FitReLU(np.full((2, 3, 3), 1.5, dtype=np.float32))
    x = Tensor(np.random.default_rng(12).uniform(-1, 3, (4, 2, 3, 3)).astype(np.float32),
               requires_grad=True)
    saved = act(x)._fn.saved
    assert len(saved) == 3
    assert saved[0] is x.data
    assert saved[1].dtype == np.float32 and saved[1].shape == x.shape
    assert saved[2].dtype == np.bool_
    act.bound.requires_grad = False
    assert act(Tensor(x.data))._fn is None
