"""The acceptance contract: interrupted + resumed == uninterrupted.

Trial seeds are schedule-independent and journaled floats round-trip
exactly, so a campaign resumed from its store must reproduce the
uninterrupted run bit for bit — per-trial accuracies, flip counts, and
the EarlyStop decision stream; likewise trials journaled by several
segment writers must fold to the straight run.
"""

import numpy as np
import pytest

from repro import nn
from repro.fault import (
    BitFlipFaultModel,
    EarlyStop,
    FaultCampaign,
    FaultInjector,
)
from repro.quant import quantize_module
from repro.store import CampaignInterrupted, CampaignStore

RATES = (1e-3, 5e-3)
SPEC = BitFlipFaultModel.at_rate(5e-3)


def _model():
    return quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )


class _ParamHealth:
    def __init__(self, model):
        self.model = model

    def __call__(self) -> float:
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


class _CountingHealth(_ParamHealth):
    """Counts evaluations — proves replay never re-runs trials."""

    def __init__(self, model):
        super().__init__(model)
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return super().__call__()


def make_campaign(trials=8, seed=11, counting=False):
    model = _model()
    evaluate = _CountingHealth(model) if counting else _ParamHealth(model)
    return FaultCampaign(
        FaultInjector(model),
        evaluate,
        trials=trials,
        seed=seed,
    )


def _journal(store_dir):
    return (store_dir / "trials.jsonl").read_bytes()


class TestResumeDeterminism:
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        """The tentpole acceptance: same accuracies, same SDC stream."""
        reference = make_campaign().run_sweep(RATES, tag="r")

        store_dir = tmp_path / "store"
        campaign = make_campaign()
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            store.max_new_records = 5  # dies mid-way through rate 1
            with pytest.raises(CampaignInterrupted):
                campaign.run_sweep(RATES, tag="r", store=store)

        campaign = make_campaign()
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            resumed = campaign.run_sweep(RATES, tag="r", store=store)
            # Only the missing trials were executed and journaled.
            assert store.appended == len(RATES) * 8 - 5

        for rate in RATES:
            np.testing.assert_array_equal(
                reference[rate].accuracies, resumed[rate].accuracies
            )
            np.testing.assert_array_equal(
                reference[rate].flip_counts, resumed[rate].flip_counts
            )

    def test_resumed_store_equals_straight_store_byte_for_byte(self, tmp_path):
        """Journals (outcomes *and* site records) are identical too."""
        straight_dir = tmp_path / "straight"
        campaign = make_campaign()
        with CampaignStore.for_campaign(straight_dir, campaign) as store:
            campaign.run_sweep(RATES, tag="r", store=store)

        resumed_dir = tmp_path / "resumed"
        campaign = make_campaign()
        with CampaignStore.for_campaign(resumed_dir, campaign) as store:
            store.max_new_records = 7
            with pytest.raises(CampaignInterrupted):
                campaign.run_sweep(RATES, tag="r", store=store)
        campaign = make_campaign()
        with CampaignStore.for_campaign(resumed_dir, campaign) as store:
            campaign.run_sweep(RATES, tag="r", store=store)

        assert _journal(straight_dir) == _journal(resumed_dir)

    def test_replay_runs_no_evaluations(self, tmp_path):
        store_dir = tmp_path / "store"
        campaign = make_campaign()
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            reference = campaign.run(SPEC, tag="t", store=store)

        replayer = make_campaign(counting=True)
        with CampaignStore.for_campaign(store_dir, replayer) as store:
            replayed = replayer.run(SPEC, tag="t", store=store)
        assert replayer.evaluate.calls == 0
        np.testing.assert_array_equal(reference.accuracies, replayed.accuracies)


def test_two_segment_fold_equals_straight_run(tmp_path):
    """Two writers journal interleaved trial slices into their own
    segments of one store; the fold equals the straight run."""
    reference = make_campaign().run_sweep(RATES, tag="s")

    models = [BitFlipFaultModel.at_rate(rate) for rate in RATES]
    campaign = make_campaign()
    with CampaignStore.for_campaign(tmp_path, campaign) as store:
        keys = store.register_configs(models, tag="s")
    for index, segment in enumerate(("alpha", "beta")):
        campaign = make_campaign()
        with CampaignStore.open(tmp_path, segment=segment) as store:
            store.attach(campaign)
            for key, model in zip(keys, models):
                trials = range(index, campaign.trials, 2)
                for outcome, sites in campaign.iter_range(model, trials, tag="s"):
                    store.record(key, outcome, sites)

    with CampaignStore.open(tmp_path) as folded:
        for rate, key in zip(RATES, keys):
            result = folded.result(key)
            np.testing.assert_array_equal(
                reference[rate].accuracies, result.accuracies
            )
            np.testing.assert_array_equal(
                reference[rate].flip_counts, result.flip_counts
            )


class TestBudget:
    def test_budget_never_evaluates_over_limit_trials(self, tmp_path):
        """--limit N means exactly N evaluations, not N+1: the campaign
        truncates dispatched work to the remaining budget and raises
        before the first un-journalable evaluation."""
        campaign = make_campaign(counting=True)
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            store.max_new_records = 2
            with pytest.raises(CampaignInterrupted):
                campaign.run(SPEC, tag="b", store=store)
        assert campaign.evaluate.calls == 2
        assert store.appended == 2

    def test_sweep_killed_between_rates_is_not_reported_complete(
        self, tmp_path
    ):
        """run_sweep registers every rate's config up front, so a store
        interrupted after rate 1 still shows rate 2 as missing work."""
        campaign = make_campaign()
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            store.max_new_records = 8  # exactly rate 1's trials
            with pytest.raises(CampaignInterrupted):
                campaign.run_sweep(RATES, tag="k", store=store)
            status = store.status()
            assert len(status["configs"]) == len(RATES)
            assert status["journaled"] == 8
            assert status["expected"] == 8 * len(RATES)
            assert not status["complete"]


class TestEarlyStopConvergence:
    STOP = EarlyStop(ci_halfwidth=1.0, min_trials=2)

    def test_convergence_is_recorded_in_the_manifest(self, tmp_path):
        campaign = make_campaign()
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            result = campaign.run(SPEC, tag="es", store=store, early_stop=self.STOP)
            (key,) = store.config_keys()
            assert store.converged_at(key) == result.trials == 2

    def test_resume_does_not_reopen_a_converged_config(self, tmp_path):
        campaign = make_campaign()
        with CampaignStore.for_campaign(tmp_path / "s", campaign) as store:
            reference = campaign.run(
                SPEC, tag="es", store=store, early_stop=self.STOP
            )
        # Resume-by-rerun *without* early_stop: the manifest's converged
        # marker still short-circuits — no evaluation happens at all.
        resumer = make_campaign(counting=True)
        with CampaignStore.for_campaign(tmp_path / "s", resumer) as store:
            replayed = resumer.run(SPEC, tag="es", store=store)
        assert resumer.evaluate.calls == 0
        assert replayed.trials == reference.trials
        np.testing.assert_array_equal(reference.accuracies, replayed.accuracies)

    def test_convergence_reached_during_replay_is_marked(self, tmp_path):
        """Crash after journaling but before convergence: the resumed run
        makes the same EarlyStop decision at the same trial."""
        reference = make_campaign().run(SPEC, tag="es", early_stop=self.STOP)

        store_dir = tmp_path / "s"
        campaign = make_campaign()
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            store.max_new_records = 1  # crash before min_trials
            with pytest.raises(CampaignInterrupted):
                campaign.run(SPEC, tag="es", store=store, early_stop=self.STOP)
            assert store.converged_at(store.config_keys()[0]) is None
        campaign = make_campaign()
        with CampaignStore.for_campaign(store_dir, campaign) as store:
            resumed = campaign.run(
                SPEC, tag="es", store=store, early_stop=self.STOP
            )
            assert store.converged_at(store.config_keys()[0]) == reference.trials
        np.testing.assert_array_equal(reference.accuracies, resumed.accuracies)
