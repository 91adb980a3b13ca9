"""Burst (multi-bit upset) fault model: expansion, containment, matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BurstFaultModel,
    FaultCampaign,
    FaultInjector,
    FaultSites,
    expand_bursts,
)
from repro.quant import quantize_module


def _model(seed=0):
    model = nn.Sequential(
        nn.Linear(8, 16, rng=seed), nn.ReLU(), nn.Linear(16, 4, rng=seed + 1)
    )
    return quantize_module(model)


class TestExpandBursts:
    def test_single_burst_expansion(self):
        starts = FaultSites(np.array([5]), np.array([10]))
        sites = expand_bursts(starts, 4)
        assert len(sites) == 4
        np.testing.assert_array_equal(sites.word_positions, [5, 5, 5, 5])
        np.testing.assert_array_equal(sorted(sites.bit_positions), [10, 11, 12, 13])

    def test_length_one_is_identity(self):
        starts = FaultSites(np.array([1, 2, 3]), np.array([0, 5, 31]))
        sites = expand_bursts(starts, 1)
        assert len(sites) == 3
        assert set(zip(sites.word_positions, sites.bit_positions)) == {
            (1, 0),
            (2, 5),
            (3, 31),
        }

    def test_overlapping_bursts_dedupe(self):
        starts = FaultSites(np.array([0, 0]), np.array([4, 6]))
        sites = expand_bursts(starts, 4)  # 4..7 and 6..9 overlap on 6, 7
        assert len(sites) == 6
        assert set(sites.bit_positions.tolist()) == {4, 5, 6, 7, 8, 9}

    def test_empty_starts(self):
        assert len(expand_bursts(FaultSites.empty(), 4)) == 0

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            expand_bursts(FaultSites.empty(), 0)


class TestBurstFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstFaultModel(burst_length=0, n_bursts=1)
        with pytest.raises(ConfigurationError):
            BurstFaultModel(burst_length=4)  # neither rate nor count
        with pytest.raises(ConfigurationError):
            BurstFaultModel(burst_length=4, burst_rate=0.1, n_bursts=2)
        with pytest.raises(ConfigurationError):
            BurstFaultModel(burst_length=4, burst_rate=1.5)

    def test_bursts_fit_inside_words(self):
        injector = FaultInjector(_model())
        sites = injector.sample(BurstFaultModel.exact(6, 40), rng=0)
        assert sites.bit_positions.max() <= 31
        assert sites.bit_positions.min() >= 0

    def test_exact_burst_count_flips(self):
        injector = FaultInjector(_model())
        length = 4
        sites = injector.sample(BurstFaultModel.exact(length, 25), rng=1)
        # Overlap is possible but rare in a big space; at least one burst
        # worth of flips, at most all distinct.
        assert length <= len(sites) <= 25 * length
        # Each hit word carries at least `length` flipped bits unless two
        # bursts overlapped there.
        _, counts = np.unique(sites.word_positions, return_counts=True)
        assert counts.min() >= 1

    def test_burst_too_long_for_word(self):
        injector = FaultInjector(_model())
        with pytest.raises(ConfigurationError):
            injector.sample(BurstFaultModel.exact(40, 1), rng=0)

    def test_matching_rate_expected_flips(self):
        """matching_rate reproduces the iid expected flip count."""
        injector = FaultInjector(_model())
        bit_rate = 0.001
        model = BurstFaultModel.matching_rate(4, bit_rate, word_bits=32)
        counts = [
            len(injector.sample(model, rng=seed)) for seed in range(200)
        ]
        expected = bit_rate * injector.total_bits
        measured = float(np.mean(counts))
        assert expected * 0.7 < measured < expected * 1.3

    def test_matching_rate_rejects_oversized_burst(self):
        with pytest.raises(ConfigurationError):
            BurstFaultModel.matching_rate(40, 1e-3, word_bits=32)

    def test_deterministic_by_seed(self):
        injector = FaultInjector(_model())
        model = BurstFaultModel.exact(3, 10)
        a = injector.sample(model, rng=7)
        b = injector.sample(model, rng=7)
        np.testing.assert_array_equal(a.word_positions, b.word_positions)
        np.testing.assert_array_equal(a.bit_positions, b.bit_positions)

    def test_campaign_accepts_burst_model(self, trained_model, first_test_batch):
        from repro.core.training import evaluate_accuracy

        quantize_module(trained_model)
        injector = FaultInjector(trained_model)
        campaign = FaultCampaign(
            injector,
            lambda: evaluate_accuracy(trained_model, first_test_batch),
            trials=2,
            seed=0,
        )
        result = campaign.run(BurstFaultModel.exact(4, 4))
        assert result.trials == 2
        assert np.all(result.flip_counts <= 16)

    def test_describe(self):
        assert "L=4" in BurstFaultModel.exact(4, 2).describe()
        assert "start_rate" in BurstFaultModel(
            burst_length=2, burst_rate=1e-4
        ).describe()

    @given(
        length=st.integers(min_value=1, max_value=8),
        n_bursts=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_burst_sites_always_adjacent_runs(self, length, n_bursts, seed):
        """Within each word, flipped bits form unions of length-L runs —
        so every flipped bit has a neighbour within the burst span."""
        injector = FaultInjector(_model())
        sites = injector.sample(BurstFaultModel.exact(length, n_bursts), rng=seed)
        assert len(sites) <= n_bursts * length
        if length == 1 or len(sites) == 0:
            return
        for word in np.unique(sites.word_positions):
            bits = np.sort(sites.bit_positions[sites.word_positions == word])
            gaps = np.diff(bits)
            # A lone isolated bit would need a gap > L on both sides AND
            # be a run of length 1; runs must be at least `length` long
            # unless two bursts overlapped (which only merges runs).
            runs = np.split(bits, np.where(gaps > 1)[0] + 1)
            assert all(run.size >= length for run in runs)
