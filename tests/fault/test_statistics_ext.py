"""Outcome classification, confidence intervals, group vulnerability."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BitFlipFaultModel,
    CampaignResult,
    FaultCampaign,
    FaultInjector,
    classify_outcomes,
    mean_confidence_interval,
    parameter_group_vulnerability,
    wilson_interval,
)
from repro.quant import quantize_module


def _result(accuracies):
    accuracies = np.asarray(accuracies, dtype=np.float64)
    return CampaignResult(
        BitFlipFaultModel.exact(1),
        accuracies,
        np.ones(accuracies.size, dtype=np.int64),
    )


class TestClassifyOutcomes:
    def test_buckets(self):
        result = _result([0.90, 0.89, 0.60, 0.15, 0.10])
        breakdown = classify_outcomes(
            result, baseline=0.90, masked_tolerance=0.02, critical_accuracy=0.2
        )
        assert breakdown.masked == 2
        assert breakdown.degraded == 1
        assert breakdown.critical == 2
        assert breakdown.trials == 5
        assert breakdown.masked_fraction == pytest.approx(0.4)

    def test_fractions_sum_to_one(self):
        result = _result(np.linspace(0.0, 1.0, 21))
        breakdown = classify_outcomes(result, baseline=0.95)
        assert (
            breakdown.masked_fraction
            + breakdown.degraded_fraction
            + breakdown.critical_fraction
        ) == pytest.approx(1.0)

    def test_all_masked_when_no_damage(self):
        result = _result([0.9, 0.9, 0.9])
        breakdown = classify_outcomes(result, baseline=0.9)
        assert breakdown.masked == 3
        assert breakdown.critical == 0

    def test_baseline_validation(self):
        with pytest.raises(ConfigurationError):
            classify_outcomes(_result([0.5]), baseline=1.5)

    def test_summary_readable(self):
        text = classify_outcomes(_result([0.9, 0.1]), baseline=0.9).summary()
        assert "masked" in text and "critical" in text

    @given(
        accs=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40
        ),
        baseline=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_always_partition(self, accs, baseline):
        breakdown = classify_outcomes(_result(accs), baseline=baseline)
        assert breakdown.masked + breakdown.degraded + breakdown.critical == len(accs)
        assert min(breakdown.masked, breakdown.degraded, breakdown.critical) >= 0


class TestMeanConfidenceInterval:
    def test_brackets_mean(self):
        samples = [0.8, 0.85, 0.82, 0.79, 0.84]
        low, high = mean_confidence_interval(samples)
        assert low < np.mean(samples) < high

    def test_accepts_campaign_result(self):
        low, high = mean_confidence_interval(_result([0.5, 0.6, 0.7]))
        assert low < 0.6 < high

    def test_single_sample_degenerate(self):
        assert mean_confidence_interval([0.4]) == (0.4, 0.4)

    def test_constant_samples_degenerate(self):
        assert mean_confidence_interval([0.5, 0.5, 0.5]) == (0.5, 0.5)

    def test_wider_at_higher_confidence(self):
        samples = [0.2, 0.5, 0.9, 0.4, 0.6]
        low95, high95 = mean_confidence_interval(samples, confidence=0.95)
        low99, high99 = mean_confidence_interval(samples, confidence=0.99)
        assert high99 - low99 > high95 - low95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([])
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([0.5, 0.6], confidence=1.0)


# scipy costs ~1.0 s and ~60 MB per process, and only the CI helpers
# above use it: no command's import path may load it.
_COLD_IMPORTS = (
    "repro.cli.main",
    "repro.fault",
    "repro.store",
    "repro.serve",
    "repro.coord",
    "repro.eval.experiments",
)


@pytest.mark.parametrize("module", _COLD_IMPORTS)
def test_import_does_not_load_scipy(module):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    probe = (
        f"import sys, {module}\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout


def test_interval_values_are_pinned_bit_for_bit():
    """The lazy scipy import must not move a quantile: report.md and
    atlas.json render these exact floats."""
    assert wilson_interval(3, 50) == (
        float.fromhex("0x1.51c173dd3d140p-6"),
        float.fromhex("0x1.4c2044032ef7dp-3"),
    )
    assert wilson_interval(0, 7) == (0.0, float.fromhex("0x1.6ad598fa5b01dp-2"))
    assert mean_confidence_interval([0.91, 0.87, 0.9, 0.62, 0.88]) == (
        float.fromhex("0x1.5e9d0fd1da19ep-1"),
        float.fromhex("0x1.f973527bf8d7ep-1"),
    )


class TestWilsonInterval:
    def test_known_value(self):
        # 8/10 at 95%: classic Wilson ≈ (0.49, 0.94).
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.49, abs=0.02)
        assert high == pytest.approx(0.94, abs=0.02)

    def test_stays_in_unit_interval_at_extremes(self):
        low0, high0 = wilson_interval(0, 5)
        lowN, highN = wilson_interval(5, 5)
        assert low0 == 0.0 and high0 < 0.6
        assert lowN > 0.4 and highN == 1.0

    def test_narrows_with_trials(self):
        w10 = np.diff(wilson_interval(5, 10))[0]
        w100 = np.diff(wilson_interval(50, 100))[0]
        assert w100 < w10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(3, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(6, 5)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 5, confidence=0.0)

    @given(
        trials=st.integers(min_value=1, max_value=500),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_contains_point_estimate(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


class TestParameterGroupVulnerability:
    def test_groups_run_and_report(self):
        model = nn.Sequential(
            nn.Linear(6, 12, rng=0), nn.ReLU(), nn.Linear(12, 4, rng=1)
        )
        quantize_module(model)
        injector = FaultInjector(model)
        x = np.random.default_rng(0).normal(size=(16, 6)).astype(np.float32)

        from repro.autograd import Tensor

        def evaluate() -> float:
            return float(np.mean(model(Tensor(x)).data.argmax(axis=1) == 0))

        campaign = FaultCampaign(injector, evaluate, trials=2, seed=0)
        results = parameter_group_vulnerability(
            campaign, ["0.", "2."], flips_per_trial=4
        )
        assert set(results) == {"0.", "2."}
        for result in results.values():
            assert result.trials == 2
            assert np.all(result.flip_counts == 4)

    def test_prefix_filters_are_independent(self):
        """Regression guard for the classic late-binding closure bug."""
        model = nn.Sequential(
            nn.Linear(6, 12, rng=0), nn.ReLU(), nn.Linear(12, 4, rng=1)
        )
        quantize_module(model)
        injector = FaultInjector(model)
        first_words = injector.count_words(lambda n: n.startswith("0."))

        campaign = FaultCampaign(injector, lambda: 0.0, trials=1, seed=0)
        # Sample manually per prefix through the same machinery.
        for prefix, expect_low in (("0.", True), ("2.", False)):
            fault_model = BitFlipFaultModel.exact(
                64, param_filter=lambda n, p=prefix: n.startswith(p)
            )
            sites = injector.sample(fault_model, rng=0)
            inside_first = np.all(sites.word_positions < first_words)
            assert bool(inside_first) is expect_low
        assert campaign.trials == 1
