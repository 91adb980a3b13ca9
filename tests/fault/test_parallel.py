"""The campaign engine: schedule-independent seeds and one trial loop."""

import numpy as np
import pytest

from repro import nn
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
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


class TestOneTrialLoop:
    @pytest.mark.parametrize(
        "spec", [BitFlipFaultModel.exact(3), BitFlipFaultModel.at_rate(5e-3)]
    )
    def test_run_returns_what_iter_range_yields(self, spec):
        result = _campaign(trials=6, seed=3).run(spec, tag="t")
        outcomes = [
            outcome
            for outcome, _ in _campaign(trials=6, seed=3).iter_range(
                spec, range(6), "t"
            )
        ]
        assert [o.index for o in outcomes] == list(range(6))
        assert result.accuracies.dtype == np.float64
        assert result.flip_counts.dtype == np.int64
        np.testing.assert_array_equal(
            result.accuracies, [o.accuracy for o in outcomes]
        )
        np.testing.assert_array_equal(result.flip_counts, [o.flips for o in outcomes])
