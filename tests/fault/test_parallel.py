"""The campaign engine: schedule-independent seeds and early stop."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BitFlipFaultModel,
    CampaignAggregator,
    EarlyStop,
    FaultCampaign,
    FaultInjector,
    TrialOutcome,
)
from repro.quant import quantize_module


def _model():
    return quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )


class _ParamHealth:
    """Accuracy proxy: fraction of parameter values in range.

    Deterministic in the injected fault pattern, so campaigns built on
    it are bit-reproducible.
    """

    def __init__(self, model):
        self.model = model

    def __call__(self) -> float:
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


def _campaign(trials=8, seed=0):
    model = _model()
    return FaultCampaign(
        FaultInjector(model), _ParamHealth(model), trials=trials, seed=seed
    )


class TestParallelDeterminism:
    def test_trial_seeds_are_schedule_independent(self):
        spec = BitFlipFaultModel.exact(3)
        a = _campaign(seed=4).trial_seeds(spec, tag="t")
        b = _campaign(seed=4).trial_seeds(spec, tag="t")
        assert a == b
        assert len(set(a)) == len(a)


class TestEarlyStop:
    def test_stops_at_min_trials_when_converged(self):
        campaign = _campaign(trials=20)
        result = campaign.run(
            BitFlipFaultModel.exact(1),
            early_stop=EarlyStop(ci_halfwidth=1.0, min_trials=3),
        )
        assert result.trials == 3

    def test_tight_tolerance_runs_everything(self):
        result = _campaign(trials=5).run(
            BitFlipFaultModel.at_rate(5e-3),
            early_stop=EarlyStop(ci_halfwidth=1e-12, min_trials=2),
        )
        # Noisy accuracies under a microscopic tolerance: no early exit
        # unless the CI degenerates (all-equal accuracies).
        assert result.trials == 5 or result.std == 0.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.0)
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.1, confidence=1.5)
        with pytest.raises(ConfigurationError):
            EarlyStop(ci_halfwidth=0.1, min_trials=1)


class TestAggregator:
    def test_accumulates_in_order(self):
        agg = CampaignAggregator()
        agg.add(TrialOutcome(0, 0.9, 3))
        agg.add(TrialOutcome(1, 0.7, 2))
        assert agg.trials == 2
        assert agg.mean == pytest.approx(0.8)
        result = agg.result(BitFlipFaultModel.exact(1))
        np.testing.assert_array_equal(result.accuracies, [0.9, 0.7])
        np.testing.assert_array_equal(result.flip_counts, [3, 2])

    def test_out_of_order_outcome_rejected(self):
        agg = CampaignAggregator()
        with pytest.raises(ConfigurationError):
            agg.add(TrialOutcome(3, 0.9, 1))

    def test_halfwidth_infinite_below_two_trials(self):
        agg = CampaignAggregator()
        agg.add(TrialOutcome(0, 0.9, 1))
        assert agg.ci_halfwidth() == float("inf")

    def test_empty_aggregator_has_no_result(self):
        with pytest.raises(ConfigurationError):
            CampaignAggregator().result(BitFlipFaultModel.exact(1))
