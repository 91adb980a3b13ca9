"""Batch normalisation semantics."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, gradcheck, no_grad
from repro.errors import ShapeError


def _x(shape, seed=0, scale=3.0, shift=5.0):
    rng = np.random.default_rng(seed)
    return Tensor((rng.standard_normal(shape) * scale + shift).astype(np.float32))


class TestBatchNorm2d:
    def test_training_normalizes(self):
        bn = nn.BatchNorm2d(4)
        out = bn(_x((8, 4, 5, 5))).data
        assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(4), abs=1e-4)
        assert out.std(axis=(0, 2, 3)) == pytest.approx(np.ones(4), abs=1e-2)

    def test_affine_applied(self):
        bn = nn.BatchNorm2d(2)
        bn.weight.data[:] = 2.0
        bn.bias.data[:] = 1.0
        out = bn(_x((16, 2, 3, 3))).data
        assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.ones(2), abs=1e-4)

    def test_running_stats_updated(self):
        bn = nn.BatchNorm2d(3, momentum=1.0)  # copy the batch stats exactly
        x = _x((32, 3, 4, 4))
        bn(x)
        np.testing.assert_allclose(
            bn.running_mean, x.data.mean(axis=(0, 2, 3)), rtol=1e-4
        )
        assert int(bn.num_batches_tracked) == 1

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        bn(_x((16, 2, 3, 3)))  # populate stats
        bn.eval()
        x = _x((4, 2, 3, 3), seed=9)
        out1 = bn(x).data
        out2 = bn(x).data
        np.testing.assert_array_equal(out1, out2)  # eval mode is pure

    def test_eval_no_stat_drift(self):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(_x((4, 2, 3, 3)))
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_no_affine(self):
        bn = nn.BatchNorm2d(2, affine=False)
        assert bn.weight is None
        assert len(list(bn.parameters())) == 0

    def test_wrong_channels_raises(self):
        with pytest.raises(ShapeError):
            nn.BatchNorm2d(3)(_x((2, 4, 3, 3)))

    def test_wrong_ndim_raises(self):
        with pytest.raises(ShapeError):
            nn.BatchNorm2d(3)(_x((2, 3)))

    def test_gradcheck_training_mode(self):
        bn = nn.BatchNorm2d(2)

        def fn(x):
            return bn(x)

        gradcheck(fn, [np.random.default_rng(0).standard_normal((4, 2, 3, 3))])

    def test_buffers_not_parameters(self):
        bn = nn.BatchNorm2d(2)
        param_names = {name for name, _ in bn.named_parameters()}
        assert param_names == {"weight", "bias"}
        buffer_names = {name for name, _ in bn.named_buffers()}
        assert buffer_names == {"running_mean", "running_var", "num_batches_tracked"}


class TestBatchNorm1d:
    def test_training_normalizes(self):
        bn = nn.BatchNorm1d(5)
        out = bn(_x((64, 5))).data
        assert out.mean(axis=0) == pytest.approx(np.zeros(5), abs=1e-4)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ShapeError):
            nn.BatchNorm1d(5)(_x((2, 5, 3, 3)))

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm1d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "weight" in state


def _composed_eval(bn, x):
    """Eval-mode BatchNorm from the composed autograd ops."""
    shape = bn._stat_shape(x.ndim)
    centered = x - Tensor(bn.running_mean.reshape(shape))
    out = centered * (Tensor(bn.running_var.reshape(shape)) + bn.eps) ** -0.5
    if bn.affine:
        out = out * bn.weight.reshape(shape) + bn.bias.reshape(shape)
    return out


def _trained_bn(cls, shape, affine, seed):
    bn = cls(shape[1], affine=affine)
    rng = np.random.default_rng(seed)
    bn(_x(shape, seed=seed))  # running statistics off their defaults
    if affine:
        bn.weight.data[:] = rng.standard_normal(shape[1]).astype(np.float32)
        bn.bias.data[:] = rng.standard_normal(shape[1]).astype(np.float32)
    bn.eval()
    return bn


class TestFusedEvalBatchNorm:
    """Eval mode is one fused op whose forward and gradients are
    byte-equal to the composed ops."""

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "trainable"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize(
        "cls,shape", [(nn.BatchNorm2d, (4, 3, 5, 6)), (nn.BatchNorm1d, (7, 5))]
    )
    def test_matches_composed_ops(self, cls, shape, affine, dtype, frozen):
        bn = _trained_bn(cls, shape, affine, seed=1)
        for param in bn.parameters():
            param.requires_grad = not frozen
        rng = np.random.default_rng(2)
        data = (rng.standard_normal(shape) * 3.0).astype(dtype)
        data.reshape(-1)[::5] = -0.0
        grad = rng.standard_normal(shape).astype(dtype)
        grad.reshape(-1)[::3] = -0.0

        def run(forward):
            x = Tensor(data, requires_grad=True)
            out = forward(x)
            out.backward(grad)
            grads = [x.grad] + [p.grad for p in bn.parameters()]
            for param in bn.parameters():
                param.grad = None
            return out, grads

        out, grads = run(bn)
        assert type(out._fn).__name__ == "_EvalBatchNorm"
        reference, reference_grads = run(lambda x: _composed_eval(bn, x))
        assert out.dtype == reference.dtype
        assert out.data.tobytes() == reference.data.tobytes()
        assert len(grads) == (3 if affine else 1)
        for got, expected in zip(grads, reference_grads):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()

    def test_is_the_runtime_fold(self):
        """The compiled BatchNorm step calls the same function."""
        from repro.runtime.kernels import BatchNormKernel

        bn = _trained_bn(nn.BatchNorm2d, (4, 3, 5, 6), True, seed=3)
        x = _x((4, 3, 5, 6), seed=4).data
        with no_grad():
            module_out = bn(Tensor(x)).data
        assert BatchNormKernel(bn).run(x).tobytes() == module_out.tobytes()

    def test_frozen_affine_keeps_no_input(self):
        bn = _trained_bn(nn.BatchNorm2d, (4, 3, 5, 6), True, seed=5)
        for param in bn.parameters():
            param.requires_grad = False
        out = bn(Tensor(_x((4, 3, 5, 6), seed=6).data, requires_grad=True))
        assert out._fn.needs_input_grad == (True, False, False)
        assert out._fn.x is None

    def test_gradcheck_eval_mode(self):
        from repro.nn.norm import _EvalBatchNorm, batchnorm_constants

        bn = _trained_bn(nn.BatchNorm2d, (4, 2, 3, 3), True, seed=9)
        mean, inv_std = batchnorm_constants(bn)
        rng = np.random.default_rng(10)
        gradcheck(
            lambda x, w, b: _EvalBatchNorm.apply(
                x, w, b, mean.reshape(1, 2, 1, 1), inv_std.reshape(1, 2, 1, 1)
            ),
            [rng.standard_normal((4, 2, 3, 3)), rng.standard_normal(2),
             rng.standard_normal(2)],
        )
        # The module: frozen affine parameters, input gradient only.
        for param in bn.parameters():
            param.requires_grad = False
        gradcheck(bn, [rng.standard_normal((4, 2, 3, 3))])
