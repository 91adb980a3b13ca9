"""Word-replacement faults: lowering, modes, campaign compatibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    FaultCampaign,
    FaultInjector,
    FaultSites,
    WordFaultModel,
    replacement_flips,
)
from repro.quant import quantize_module


def _model(seed=0):
    model = nn.Sequential(
        nn.Linear(6, 12, rng=seed), nn.ReLU(), nn.Linear(12, 4, rng=seed + 1)
    )
    return quantize_module(model)


class TestReplacementFlips:
    def test_zero_target_flips_set_bits(self):
        model = nn.Linear(1, 1, bias=False, rng=0)
        model.weight.data = np.array([[1.5]], dtype=np.float32)  # 0x00018000
        quantize_module(model)
        injector = FaultInjector(model)
        sites = replacement_flips(injector, np.array([0]), np.array([0]))
        assert sorted(sites.bit_positions.tolist()) == [15, 16]

    def test_identity_target_yields_nothing(self):
        injector = FaultInjector(_model())
        words = np.arange(5, dtype=np.int64)
        current = injector.word_values(words)
        sites = replacement_flips(injector, words, current)
        assert len(sites) == 0

    def test_applying_flips_realises_target(self):
        """Injecting the lowered sites makes the words decode to target."""
        model = nn.Linear(2, 2, bias=False, rng=0)
        quantize_module(model)
        injector = FaultInjector(model)
        words = np.arange(4, dtype=np.int64)
        targets = np.array([0, 65536, -65536, 32768], dtype=np.int64)  # 0,1,-1,.5
        sites = replacement_flips(injector, words, targets)
        with injector.inject(sites):
            np.testing.assert_allclose(
                model.weight.data.reshape(-1), [0.0, 1.0, -1.0, 0.5], atol=1e-6
            )

    def test_shape_mismatch(self):
        injector = FaultInjector(_model())
        with pytest.raises(ConfigurationError):
            replacement_flips(injector, np.array([0, 1]), np.array([0]))

    def test_empty(self):
        injector = FaultInjector(_model())
        sites = replacement_flips(
            injector, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert len(sites) == 0


class TestWordFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WordFaultModel(mode="explode", n_words=1)
        with pytest.raises(ConfigurationError):
            WordFaultModel(mode="zero")  # neither rate nor count
        with pytest.raises(ConfigurationError):
            WordFaultModel(mode="zero", fault_rate=0.1, n_words=2)

    def test_zero_mode_zeroes_words(self):
        model = _model()
        injector = FaultInjector(model)
        fault_model = WordFaultModel.exact("zero", 10)
        sites = injector.sample(fault_model, rng=0)
        touched = np.unique(sites.word_positions)
        with injector.inject(sites):
            view = FaultInjector(model)
            np.testing.assert_array_equal(
                view.word_values(touched), np.zeros(touched.size, np.int64)
            )

    def test_max_mode_saturates(self):
        injector = FaultInjector(_model())
        sites = injector.sample(WordFaultModel.exact("max", 3), rng=1)
        # Every chosen word becomes max_raw: high bits must be flipped on
        # for the small weights of this model.
        assert len(sites) > 0
        assert sites.bit_positions.max() >= 29

    def test_random_mode_deterministic_by_seed(self):
        injector = FaultInjector(_model())
        fault_model = WordFaultModel.exact("random", 6)
        a = injector.sample(fault_model, rng=5)
        b = injector.sample(fault_model, rng=5)
        np.testing.assert_array_equal(a.word_positions, b.word_positions)
        np.testing.assert_array_equal(a.bit_positions, b.bit_positions)

    def test_random_mode_half_bits_flip_on_average(self):
        injector = FaultInjector(_model())
        counts = [
            len(injector.sample(WordFaultModel.exact("random", 8), rng=seed))
            for seed in range(30)
        ]
        mean_per_word = float(np.mean(counts)) / 8
        assert 12 < mean_per_word < 20  # E = 16 for 32-bit words

    def test_campaign_compatible(self, trained_model, first_test_batch):
        from repro.core.training import evaluate_accuracy

        quantize_module(trained_model)
        injector = FaultInjector(trained_model)
        campaign = FaultCampaign(
            injector,
            lambda: evaluate_accuracy(trained_model, first_test_batch),
            trials=2,
            seed=0,
        )
        result = campaign.run(WordFaultModel.exact("random", 4))
        assert result.trials == 2
        assert np.all(result.flip_counts <= 4 * 32)

    def test_describe(self):
        assert "word-zero" in WordFaultModel.exact("zero", 2).describe()
        assert "rate" in WordFaultModel.at_rate("random", 1e-5).describe()

    @given(
        mode=st.sampled_from(["random", "zero", "max"]),
        n_words=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_flip_count_bounded_by_word_budget(self, mode, n_words, seed):
        injector = FaultInjector(_model())
        sites = injector.sample(WordFaultModel.exact(mode, n_words), rng=seed)
        assert len(sites) <= n_words * 32
        if len(sites):
            _, per_word = np.unique(sites.word_positions, return_counts=True)
            assert per_word.max() <= 32
