"""BoundedTanh: the Tanh-swap baseline (Hong et al. [17])."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autograd import Tensor
from repro.core import BoundedTanh, ProtectionConfig, protect_model
from repro.core.surgery import bound_modules, bound_parameter_count, restore_relu
from repro.errors import ConfigurationError


def _x(values):
    return Tensor(np.asarray(values, dtype=np.float32))


class TestBoundedTanh:
    def test_near_identity_for_small_positives(self):
        act = BoundedTanh(4.0)
        x = _x([0.01, 0.05, 0.1])
        np.testing.assert_allclose(act(x).data, x.data, atol=1e-3)

    def test_rectifies_negatives(self):
        """Post-hoc swap on a ReLU net must keep the ReLU regime."""
        act = BoundedTanh(4.0)
        out = act(_x([-0.01, -1.0, -100.0])).data
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-6)

    def test_saturates_at_bound(self):
        act = BoundedTanh(2.0)
        out = act(_x([100.0, -100.0])).data
        np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-4)

    def test_compresses_near_bound(self):
        """The baseline's clean-accuracy tax: tanh(1) ≈ 0.76."""
        act = BoundedTanh(3.0)
        out = float(act(_x([3.0])).data[0])
        assert out == pytest.approx(3.0 * np.tanh(1.0), abs=1e-4)

    def test_monotone(self):
        act = BoundedTanh(3.0)
        xs = np.linspace(-20, 20, 201).astype(np.float32)
        ys = act(_x(xs)).data
        assert np.all(np.diff(ys) >= 0)

    def test_faulty_value_truncated_not_zeroed(self):
        """The Ranger-like failure mode: a huge faulty value propagates
        as the bound instead of being squashed to 0 (Clip-Act)."""
        act = BoundedTanh(2.5)
        out = float(act(_x([1e4])).data[0])
        assert out == pytest.approx(2.5, abs=1e-3)
        assert out > 0

    def test_per_neuron_bounds_broadcast(self):
        act = BoundedTanh(np.array([1.0, 2.0, 4.0], dtype=np.float32))
        out = act(_x([[100.0, 100.0, 100.0]])).data
        np.testing.assert_allclose(out[0], [1.0, 2.0, 4.0], atol=1e-3)

    def test_monotone_non_decreasing_everywhere(self):
        act = BoundedTanh(2.0)
        xs = np.linspace(-5, 50, 301).astype(np.float32)
        ys = act(_x(xs)).data
        assert np.all(np.diff(ys) >= -1e-7)

    def test_bound_count(self):
        assert BoundedTanh(1.0).bound_count == 1
        assert BoundedTanh(np.ones(7, dtype=np.float32)).bound_count == 7

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            BoundedTanh(0.0)
        with pytest.raises(ConfigurationError):
            BoundedTanh(np.array([1.0, -2.0]))

    def test_not_trainable_by_default(self):
        assert BoundedTanh(1.0).bound.requires_grad is False
        assert BoundedTanh(1.0, trainable=True).bound.requires_grad is True

    def test_repr_mentions_bound(self):
        assert "bound=" in repr(BoundedTanh(1.5))

    @given(
        bound=st.floats(min_value=0.1, max_value=50.0),
        x=st.floats(min_value=-1000.0, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_zero_to_bound(self, bound, x):
        act = BoundedTanh(bound)
        out = float(act(_x([x])).data[0])
        assert -1e-6 <= out <= bound + 1e-4


class TestTanhProtectionMethod:
    def test_protect_model_with_tanh(self, trained_model, train_loader):
        report = protect_model(
            trained_model, train_loader, ProtectionConfig(method="tanh")
        )
        assert report.method == "tanh"
        assert report.granularity == "layer"
        assert len(report.replaced_sites) > 0
        modules = bound_modules(trained_model)
        assert all(isinstance(m, BoundedTanh) for m in modules.values())
        # Layer-global: one bound word per site.
        assert bound_parameter_count(trained_model) == len(report.replaced_sites)

    def test_tanh_keeps_clean_accuracy(
        self, trained_model, train_loader, test_loader, trained_state
    ):
        from repro.core.training import evaluate_accuracy

        protect_model(trained_model, train_loader, ProtectionConfig(method="tanh"))
        accuracy = evaluate_accuracy(trained_model, test_loader)
        # The tanh compression taxes clean accuracy more than hard-clip
        # schemes (tanh(1) ≈ 0.76 at the layer max) but must stay usable.
        assert accuracy > trained_state["accuracy"] - 0.15

    def test_restore_relu_covers_tanh(self, trained_model, train_loader):
        protect_model(trained_model, train_loader, ProtectionConfig(method="tanh"))
        restored = restore_relu(trained_model)
        assert restored > 0
        assert not bound_modules(trained_model)

    def test_tanh_bounds_live_in_fault_space(self, trained_model, train_loader):
        from repro.fault import FaultInjector
        from repro.quant import quantize_module

        protect_model(trained_model, train_loader, ProtectionConfig(method="tanh"))
        quantize_module(trained_model)
        injector = FaultInjector(trained_model)
        assert any(name.endswith(".bound") for name in injector.parameter_names)


class TestTrainableTanhPostTraining:
    def test_post_trainer_tunes_tanh_bounds(
        self, trained_model, train_loader, test_loader
    ):
        """Extension path: trainable BoundedTanh λ through the Eq. 10 loop."""
        from repro.core import BoundPostTrainer, PostTrainingConfig
        from repro.core.surgery import find_activation_sites
        from repro.core.profiler import profile_activations

        profile = profile_activations(
            trained_model, list(itertools.islice(train_loader, 2))
        )
        for path in find_activation_sites(trained_model):
            bound = float(profile.bounds(path, granularity="layer").max())
            trained_model.set_submodule(path, BoundedTanh(bound, trainable=True))

        trainer = BoundPostTrainer(
            trained_model,
            PostTrainingConfig(epochs=1, lr=0.01, zeta=0.1, delta=0.5),
        )
        before = [b.data.copy() for b in trainer.bound_parameters]
        batches = list(itertools.islice(train_loader, 3))
        report = trainer.run(batches, test_loader, reference_accuracy=1.0)
        assert report.epochs_run == 1
        changed = any(
            not np.array_equal(b.data, prev)
            for b, prev in zip(trainer.bound_parameters, before)
        )
        assert changed

    def test_frozen_tanh_bounds_rejected(self, trained_model, train_loader):
        """Non-trainable tanh protection has no ΘR — the trainer says so."""
        from repro.core import BoundPostTrainer

        protect_model(trained_model, train_loader, ProtectionConfig(method="tanh"))
        with pytest.raises(ConfigurationError, match="trainable activation bounds"):
            BoundPostTrainer(trained_model)
