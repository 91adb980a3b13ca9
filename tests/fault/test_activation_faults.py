"""Transient activation-fault injection: surgery, arming, campaigns."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core.bounded_relu import GBReLU
from repro.errors import ConfigurationError
from repro.fault import (
    ActivationFaultCampaign,
    ActivationFaultInjector,
    ActivationFaultLayer,
    ActivationFaultModel,
)


def _model(seed=0):
    return nn.Sequential(
        nn.Linear(6, 12, rng=seed), nn.ReLU(), nn.Linear(12, 4, rng=seed + 1)
    )


def _batch(rng=None, n=8):
    rng = rng or np.random.default_rng(0)
    return Tensor(rng.normal(size=(n, 6)).astype(np.float32))


class TestActivationFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ActivationFaultModel()
        with pytest.raises(ConfigurationError):
            ActivationFaultModel(fault_rate=0.1, n_flips=2)
        with pytest.raises(ConfigurationError):
            ActivationFaultModel(fault_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ActivationFaultModel(n_flips=-1)

    def test_describe(self):
        assert "rate" in ActivationFaultModel.at_rate(1e-6).describe()
        assert "/layer" in ActivationFaultModel.exact(3).describe()


class TestActivationFaultLayer:
    def test_passthrough_when_disarmed(self):
        layer = ActivationFaultLayer()
        x = _batch()
        out = layer(x)
        assert out is x  # literally untouched

    def test_armed_quantises_and_flips(self):
        layer = ActivationFaultLayer()
        layer.arm(ActivationFaultModel.exact(4), np.random.default_rng(0))
        x = _batch()
        out = layer(x)
        assert layer.flips_injected == 4
        assert out.data.shape == x.data.shape
        assert not np.array_equal(out.data, x.data)

    def test_zero_flips_is_pure_quantisation(self):
        layer = ActivationFaultLayer()
        layer.arm(ActivationFaultModel.exact(0), np.random.default_rng(0))
        x = _batch()
        out = layer(x)
        # Q15.16 resolution on small values: within 1 ulp.
        np.testing.assert_allclose(out.data, x.data, atol=1.0 / 65536)

    def test_fresh_faults_each_forward(self):
        layer = ActivationFaultLayer()
        layer.arm(ActivationFaultModel.exact(2), np.random.default_rng(0))
        x = _batch()
        a = layer(x).data.copy()
        b = layer(x).data.copy()
        assert layer.flips_injected == 4
        assert not np.array_equal(a, b)

    def test_disarm_restores_passthrough(self):
        layer = ActivationFaultLayer()
        layer.arm(ActivationFaultModel.exact(2), np.random.default_rng(0))
        layer.disarm()
        x = _batch()
        assert layer(x) is x


class TestActivationFaultInjector:
    def test_instruments_all_activations(self):
        model = _model()
        injector = ActivationFaultInjector(model)
        assert injector.sites == ["1"]

    def test_instruments_protected_activations(self):
        model = _model()
        model.set_submodule("1", GBReLU(2.0))
        injector = ActivationFaultInjector(model)
        assert injector.sites == ["1"]

    def test_no_sites_raises(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=0))
        with pytest.raises(ConfigurationError):
            ActivationFaultInjector(model)

    def test_inactive_model_output_unchanged(self):
        model = _model()
        x = _batch()
        before = model(x).data.copy()
        ActivationFaultInjector(model)
        np.testing.assert_array_equal(model(x).data, before)

    def test_active_context_corrupts_and_restores(self):
        model = _model()
        x = _batch()
        before = model(x).data.copy()
        injector = ActivationFaultInjector(model)
        with injector.active(ActivationFaultModel.exact(16), seed=0):
            corrupted = model(x).data.copy()
            assert injector.flips_injected == 16
        assert not np.array_equal(corrupted, before)
        np.testing.assert_array_equal(model(x).data, before)

    def test_remove_restores_module_tree(self):
        model = _model()
        x = _batch()
        before = model(x).data.copy()
        injector = ActivationFaultInjector(model)
        removed = injector.remove()
        assert removed == 1
        assert type(model.get_submodule("1")).__name__ == "ReLU"
        np.testing.assert_array_equal(model(x).data, before)

    def test_active_after_remove_raises(self):
        model = _model()
        injector = ActivationFaultInjector(model)
        injector.remove()
        with pytest.raises(ConfigurationError):
            with injector.active(ActivationFaultModel.exact(1), seed=0):
                pass

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            model = _model()
            injector = ActivationFaultInjector(model)
            with injector.active(ActivationFaultModel.exact(8), seed=123):
                outs.append(model(_batch()).data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_parameters_untouched(self):
        """Transient faults must never corrupt stored parameters."""
        model = _model()
        snapshot = {n: p.data.copy() for n, p in model.named_parameters()}
        injector = ActivationFaultInjector(model)
        with injector.active(ActivationFaultModel.at_rate(1e-3), seed=0):
            model(_batch())
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, snapshot[name])


class TestActivationFaultCampaign:
    def test_runs_trials(self):
        model = _model()
        injector = ActivationFaultInjector(model)
        x = _batch()

        def evaluate() -> float:
            out = model(x)
            return float(np.mean(out.data.argmax(axis=1) == 0))

        campaign = ActivationFaultCampaign(injector, evaluate, trials=3, seed=0)
        result = campaign.run(ActivationFaultModel.exact(4))
        assert result.trials == 3
        assert np.all(result.flip_counts == 4)

    def test_high_rate_hurts_accuracy(self, trained_model, first_test_batch):
        from repro.core.training import evaluate_accuracy

        clean = evaluate_accuracy(trained_model, first_test_batch)
        injector = ActivationFaultInjector(trained_model)
        campaign = ActivationFaultCampaign(
            injector,
            lambda: evaluate_accuracy(trained_model, first_test_batch),
            trials=2,
            seed=0,
        )
        hurt = campaign.run(ActivationFaultModel.at_rate(3e-4))
        assert hurt.mean < clean

    def test_invalid_trials(self):
        model = _model()
        injector = ActivationFaultInjector(model)
        with pytest.raises(ConfigurationError):
            ActivationFaultCampaign(injector, lambda: 0.0, trials=0)
