"""FitReLU: the trainable fine-grained bounded activation (paper §IV-C).

Paper Eq. 6 writes the function as::

    ξ(x) = max(0, x − x / (1 + e^{k(x − λᵢ)}))

Using ``x − x/(1+e^{z}) = x·σ(z)`` (σ the logistic sigmoid), this equals
``max(0, x·σ(k(x−λᵢ)))``.  As printed — with positive k — that *passes*
large faulty values and suppresses in-range ones, the opposite of the
behaviour plotted in the paper's Fig. 3 and of the stated goal of
squashing values above the bound.  The intended function (matching Fig. 3
and the "descent slope" description of k) is obtained with the gate
reversed, i.e. Eq. 6 with a negative k::

    ξ_FitReLU(x) = max(0, x · σ(k(λᵢ − x)))      with k > 0

which passes x for x ≪ λᵢ, descends smoothly through λᵢ (ξ(λᵢ) = λᵢ/2),
and squashes x ≫ λᵢ to ~0 like Clip-Act — but per neuron and, crucially,
with well-defined gradients ∂ξ/∂λᵢ everywhere, making the bounds
learnable by gradient descent.  We implement this reconciled form; the
sign convention is recorded here and in DESIGN.md.

Slope scaling
-------------
The paper computes k "empirically".  A single absolute k cannot serve
bounds of very different magnitudes: the transition band has width ~4/k,
so a k tuned for λ≈4 grossly distorts a neuron with λ≈0.3.  The default
``slope_mode="relative"`` therefore uses a per-neuron effective slope
kᵢ = k/λᵢ, making the band a fixed *fraction* (~4/k) of each neuron's
bound; ``slope_mode="absolute"`` keeps Eq. 6's fixed-k form for the
faithfulness ablation (bench ABL-K sweeps both).

Tanh form
---------
With ``σ(z) = ½(1 + tanh(z/2))`` and z = kᵢ(λᵢ − x) the function is::

    ξ(x) = max(0, x · ½(1 + tanh(aᵢ·(λᵢ − x))))      aᵢ = ½kᵢ

(``kᵢ = k/max(|λᵢ|, 1e-6)`` in relative mode, ``k`` in absolute mode),
i.e. ``tanh(bᵢ − aᵢ·x)`` with ``bᵢ = aᵢ·λᵢ``.  :func:`fitrelu_into`
evaluates it in seven elementwise passes over one float scratch plane,
with the slope ``a`` computed once per call by :func:`gate_slope`, not
per element.  The argument is formed as ``a·(λ − x)`` rather than
``b − a·x``: the same two passes, but ``λ − x`` is exact near the bound,
so the argument carries one rounding instead of the cancellation of two
products of size ½kλ.  :func:`fitrelu_into` is the one implementation
of the function: :class:`FitReLU`'s forward (through a fused autograd
op with an analytic backward) and the compiled runtime's epilogue
(:func:`repro.runtime.kernels.apply_activation`) both call it, so
module and plan agree bit for bit by construction.

The anchors are exact: ξ(λᵢ) = λᵢ/2 (tanh sees exactly 0) and
ξ(0) = 0.  Far above the bound (z ≪ 0) no ``exp`` is taken, so nothing
overflows whatever the magnitude of a faulty input: float32 tanh
saturates to −1, the gate ``1 + tanh`` is exactly 0 and so is the
output (with numpy's tanh from σ(z) ≈ 2⁻²⁹; between that and 2⁻²⁴ the
gate is a few float32 ulps, not σ itself).  Inputs of +inf or NaN, and
bounds corrupted to NaN, give NaN, as the sigmoid form did.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function, unbroadcast
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["DEFAULT_SLOPE", "NUMERICS", "FitReLU", "fitrelu_into", "gate_slope"]

DEFAULT_SLOPE = 40.0
"""Default slope coefficient k.

In the default relative mode the smooth descent band spans roughly
λ·4/k = 10% of each neuron's bound — sharp enough to behave like the
hard FitReLU-Naive on faulty values, smooth enough for stable λ
gradients.
"""

_SLOPE_MODES = ("relative", "absolute")

#: Names the FitReLU arithmetic (the tanh form of :func:`fitrelu_into`).
#: Campaign stores record it next to the conv numerics
#: (``FaultCampaign.numerics``) and refuse to resume under another
#: value; change it with any change that moves FitReLU's output bits.
NUMERICS = "fitrelu-tanh"


def gate_slope(bound: np.ndarray, k: float, slope_mode: str) -> np.ndarray:
    """The gate's per-neuron slope ``a = ½·kᵢ``.

    ``kᵢ`` is ``k / max(|λᵢ|, 1e-6)`` in relative mode (an array shaped
    like ``bound``) and ``k`` in absolute mode (a scalar).  Read it from
    the live bound array, so a flipped bound word reaches it.
    """
    half_k = np.float32(0.5 * k)
    if slope_mode == "relative":
        return half_k / np.maximum(np.abs(bound), np.float32(1e-6))
    return half_k


def fitrelu_into(
    x: np.ndarray,
    bound: np.ndarray,
    a: np.ndarray,
    out: np.ndarray,
    plane: np.ndarray,
) -> np.ndarray:
    """``max(0, x·½(1 + tanh(a·(λ − x))))`` written into ``out``.

    ``a`` is :func:`gate_slope` of ``bound``.  ``plane`` is float
    scratch shaped like ``out``; on return it holds the gate
    ``1 + tanh(a·(λ − x))``, which the autograd backward reuses.  ``out``
    may alias ``x`` (the compiled epilogue runs in place): ``x`` is read
    for the last time by the pass that first writes ``out``.
    """
    np.subtract(bound, x, out=plane)
    np.multiply(plane, a, out=plane)
    np.tanh(plane, out=plane)
    np.add(plane, 1.0, out=plane)
    np.multiply(x, plane, out=out)
    np.multiply(out, 0.5, out=out)
    return np.maximum(out, 0.0, out=out)


class _FitReLUGate(Function):
    """Fused FitReLU: one :func:`fitrelu_into` forward, analytic backward.

    With g = 1 + tanh(u), u = a(λ − x) and ``a`` held constant (relative
    mode detaches the slope's 1/|λ|), the output y = ½·x·g has
    ∂y/∂x = ½g − c and ∂y/∂λ = c, where c = ½·a·x·(1 − tanh²u) =
    ½·a·x·g(2 − g).  Both are masked by y > 0.  Saved: x, the gate
    plane g and the ReLU mask.
    """

    def forward(
        self, x: np.ndarray, bound: np.ndarray, k: float, slope_mode: str
    ) -> np.ndarray:
        a = gate_slope(bound, k, slope_mode)
        shape = np.broadcast_shapes(x.shape, bound.shape)
        dtype = np.result_type(x, bound, a)
        out = np.empty(shape, dtype=dtype)
        plane = np.empty(shape, dtype=dtype)
        fitrelu_into(x, bound, a, out, plane)
        if any(self.needs_input_grad):
            self.a = a
            self.bound_shape = bound.shape
            self.x_shape = x.shape
            self.save_for_backward(x, plane, out > 0)
        return out

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        x, gate, mask = self.saved
        live = grad_out * mask
        # c = ½·a·x·g(2 − g)·live, built in one buffer.
        c = np.subtract(2.0, gate)
        c *= gate
        c *= x
        c *= live
        c *= self.a * 0.5
        grad_x = grad_bound = None
        if self.needs_input_grad[0]:
            grad_x = np.multiply(live, gate)
            grad_x *= 0.5
            grad_x -= c
            grad_x = unbroadcast(grad_x, self.x_shape)
        if self.needs_input_grad[1]:
            grad_bound = unbroadcast(c, self.bound_shape)
        return grad_x, grad_bound


class FitReLU(Module):
    """Trainable neuron-wise bounded ReLU.

    Parameters
    ----------
    bounds:
        Initial bound values λᵢ.  Shape defines the granularity: the full
        unbatched activation shape for neuron-wise bounds (FitAct's
        default), ``(C, 1, 1)`` for channel-wise, or ``(1,)``/scalar for a
        single layer-global bound — anything broadcastable against the
        activation.  Initialise from profiled per-neuron maxima (paper §V:
        "initialize the bound parameters ΘR for each neuron to their
        maximum values over the training dataset").
    k:
        Slope coefficient (> 0); larger is closer to the hard piecewise
        FitReLU-Naive.
    slope_mode:
        ``"relative"`` (default): effective slope k/λᵢ per neuron;
        ``"absolute"``: Eq. 6's fixed k.
    trainable:
        Whether λ receives gradients (True for post-training; freeze for
        deployment studies).
    """

    def __init__(
        self,
        bounds: float | np.ndarray,
        k: float = DEFAULT_SLOPE,
        slope_mode: str = "relative",
        trainable: bool = True,
    ) -> None:
        super().__init__()
        bounds_array = np.atleast_1d(np.asarray(bounds, dtype=np.float32))
        if np.any(bounds_array <= 0):
            raise ConfigurationError("initial bounds must be positive")
        if k <= 0:
            raise ConfigurationError(f"slope k must be positive, got {k}")
        if slope_mode not in _SLOPE_MODES:
            raise ConfigurationError(
                f"slope_mode must be one of {_SLOPE_MODES}, got {slope_mode!r}"
            )
        self.k = float(k)
        self.slope_mode = slope_mode
        self.bound = Parameter(bounds_array, requires_grad=trainable)

    def forward(self, x: Tensor) -> Tensor:
        return _FitReLUGate.apply(as_tensor(x), self.bound, self.k, self.slope_mode)

    @property
    def bound_count(self) -> int:
        """Number of λ words this layer adds (Table I memory accounting)."""
        return int(self.bound.size)

    def effective_slope(self) -> np.ndarray:
        """Per-neuron slope actually applied at the current bounds."""
        if self.slope_mode == "relative":
            return (self.k / np.maximum(np.abs(self.bound.data), 1e-6)).astype(
                np.float32
            )
        return np.full_like(self.bound.data, self.k)

    def hard_equivalent(self) -> np.ndarray:
        """Copy of the current bounds, for exporting to FitReLU-Naive."""
        return self.bound.data.copy()

    def extra_repr(self) -> str:
        data = self.bound.data
        return (
            f"bounds=array{tuple(data.shape)} "
            f"[mean={float(data.mean()):.4g}, max={float(data.max()):.4g}], "
            f"k={self.k}, slope_mode={self.slope_mode!r}, "
            f"trainable={self.bound.requires_grad}"
        )
