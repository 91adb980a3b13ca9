"""FitReLU: compiled plan and module forward agree bit for bit.

Both paths call :func:`repro.core.fitrelu.fitrelu_into`; these tests pin
that at every place a plan evaluates the activation — a K-major conv
epilogue (block by block, with the slope computed once per run), a
channels-last conv, a Linear layer and a standalone
:class:`~repro.runtime.kernels.ActivationKernel` — for every bound
granularity, both slope modes, pre-activations holding 1e4, ±inf and
NaN, and a bound word flipped between two forwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.core.fitrelu import FitReLU
from repro.fault.injector import FaultInjector
from repro.fault.sites import FaultSites
from repro.quant import quantize_module
from repro.runtime import compile_model
from repro.runtime import kernels as kernels_module
from repro.runtime.kernels import (
    ActivationKernel,
    ConvKernel,
    LinearKernel,
    walk_kernels,
)

C = 4


def _bounds(granularity, neuron_shape, rng):
    channel_shape = (neuron_shape[0],) + (1,) * (len(neuron_shape) - 1)
    shape = {"neuron": neuron_shape, "channel": channel_shape, "scalar": (1,)}
    return rng.uniform(0.3, 2.0, shape[granularity]).astype(np.float32)


def _kmajor(bounds):  # 16x16 maps: K-major, fused epilogue
    return nn.Sequential(nn.Conv2d(3, C, 3, padding=1, rng=0), FitReLU(*bounds))


def _nhwc(bounds):  # 4x4 maps: channels-last, fused epilogue
    conv = nn.Conv2d(3, C, 3, stride=4, padding=1, rng=0)
    return nn.Sequential(conv, FitReLU(*bounds))


def _linear(bounds):
    linear = nn.Linear(3 * 16 * 16, C, rng=0)
    return nn.Sequential(nn.Flatten(), linear, FitReLU(*bounds))


def _standalone(bounds):  # after a pool: its own ActivationKernel step
    return nn.Sequential(
        nn.Conv2d(3, C, 3, padding=1, rng=0), nn.MaxPool2d(2), FitReLU(*bounds)
    )


#: site -> (model builder, unbatched activation shape, kernel type)
_SITES = {
    "kmajor": (_kmajor, (C, 16, 16), ConvKernel),
    "nhwc": (_nhwc, (C, 4, 4), ConvKernel),
    "linear": (_linear, (C,), LinearKernel),
    "standalone": (_standalone, (C, 8, 8), ActivationKernel),
}


def _model(site, granularity, mode):
    build, shape, _kind = _SITES[site]
    bounds = _bounds(granularity, shape, np.random.default_rng(1))
    return quantize_module(build((bounds, 40.0, mode)))


def _inputs(n=6):
    """Random images, one holding a 1e4 pixel, one +inf, one -inf, one NaN."""
    x = np.random.default_rng(2).standard_normal((n, 3, 16, 16)).astype(np.float32)
    x[0] *= 1e4
    x[1, 0, 3, 3] = np.inf
    x[2, 1, 7, 9] = -np.inf
    x[3, 2, 11, 2] = np.nan
    return x


def _module(model, x):
    model.eval()
    with no_grad(), np.errstate(invalid="ignore", over="ignore"):
        return model(Tensor(x)).data


def _plan(plan, x):
    with np.errstate(invalid="ignore", over="ignore"):
        return plan(x)


@pytest.mark.parametrize("mode", ["relative", "absolute"])
@pytest.mark.parametrize("granularity", ["neuron", "channel", "scalar"])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_plan_equals_module_bitwise(monkeypatch, site, granularity, mode):
    # Small K-major blocks, so the fused epilogue runs several times a run.
    monkeypatch.setattr(kernels_module, "CONV_BLOCK_BYTES", 64 << 10)
    model = _model(site, granularity, mode)
    x = _inputs()
    plan = compile_model(model, x.shape)
    out = _plan(plan, x)
    assert out.tobytes() == _module(model, x).tobytes()
    kinds = [type(k) for k in walk_kernels(plan.steps)]
    assert _SITES[site][2] in kinds
    if site == "kmajor":
        (conv,) = [k for k in walk_kernels(plan.steps) if isinstance(k, ConvKernel)]
        assert conv.tier == "im2col" and conv.block < x.shape[0]
    elif site == "nhwc":
        (conv,) = [k for k in walk_kernels(plan.steps) if isinstance(k, ConvKernel)]
        assert conv.tier == "nhwc"
    # The special values reached the activation and came out as the
    # module's: NaN somewhere, and finite zeros where 1e4 was squashed.
    assert np.isnan(out).any()
    assert (out[0] == 0).any()


@pytest.mark.parametrize("bit", [31, 30, 14])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_flipped_bound_word_reaches_both_paths(site, bit):
    """A bound word flipped between two forwards of one plan: the slope
    computed at run time must see it, as the module forward does."""
    model = _model(site, "neuron", "relative")
    x = _inputs(12)[4:]  # finite images
    plan = compile_model(model, x.shape)
    clean = _plan(plan, x)
    injector = FaultInjector(model)
    names = injector.parameter_names
    layer = names.index(next(n for n in names if n.endswith("bound")))
    offset = sum(injector.parameter_words[:layer])
    # The same bit of every bound word, so some active neuron moves.
    words = offset + np.arange(injector.parameter_words[layer], dtype=np.int64)
    sites = FaultSites(words, np.full(words.shape, bit, dtype=np.int64))
    with injector.inject(sites):
        faulty = _plan(plan, x)
        assert faulty.tobytes() == _module(model, x).tobytes()
    assert faulty.tobytes() != clean.tobytes()
    assert _plan(plan, x).tobytes() == clean.tobytes()
