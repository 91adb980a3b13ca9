"""The acceptance contract: interrupted + resumed == uninterrupted.

Trial seeds are schedule-independent and journaled floats round-trip
exactly, so a store drained by a worker that stopped at its trial
budget and another that resumed must reproduce the uninterrupted
in-memory run bit for bit — per-trial accuracies and flip counts;
likewise trials journaled by several segment writers must fold to the
straight run.
"""

import json

import numpy as np

from repro import nn
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.quant import quantize_module
from repro.store import CampaignStore, config_key
from tests.conftest import drain_store, journal_lines, open_writer

RATES = (1e-3, 5e-3)
MODELS = [BitFlipFaultModel.at_rate(rate) for rate in RATES]
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
    """Counts evaluations — proves a resume never re-runs trials."""

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


def _results(store_dir):
    with CampaignStore.open(store_dir) as store:
        return {
            rate: store.result(config_key("", model.describe()))
            for rate, model in zip(RATES, MODELS)
        }


class TestResumeDeterminism:
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        """The tentpole acceptance: same accuracies, same SDC stream."""
        reference = make_campaign().run_sweep(RATES)

        store_dir = tmp_path / "store"
        first = drain_store(
            store_dir, make_campaign(), MODELS, max_trials=5
        )  # stops mid-way through rate 1
        assert first["stopped"] and not first["complete"]
        resumed = drain_store(store_dir, make_campaign(), MODELS)
        # Only the missing trials were executed and journaled.
        assert resumed["complete"]
        assert resumed["trials"] == len(RATES) * 8 - 5

        results = _results(store_dir)
        for rate in RATES:
            np.testing.assert_array_equal(
                reference[rate].accuracies, results[rate].accuracies
            )
            np.testing.assert_array_equal(
                reference[rate].flip_counts, results[rate].flip_counts
            )

    def test_resumed_store_equals_straight_store_byte_for_byte(self, tmp_path):
        """Journals (outcomes *and* site records) are identical too."""
        straight_dir = tmp_path / "straight"
        drain_store(straight_dir, make_campaign(), MODELS)

        resumed_dir = tmp_path / "resumed"
        drain_store(resumed_dir, make_campaign(), MODELS, max_trials=7)
        drain_store(resumed_dir, make_campaign(), MODELS)

        assert journal_lines(straight_dir) == journal_lines(resumed_dir)

    def test_resume_of_a_complete_store_runs_no_evaluations(self, tmp_path):
        store_dir = tmp_path / "store"
        drain_store(store_dir, make_campaign(), MODELS)

        resumer = make_campaign(counting=True)
        report = drain_store(store_dir, resumer, MODELS)
        assert report["complete"] and report["trials"] == 0
        assert resumer.evaluate.calls == 0


def test_two_segment_fold_equals_straight_run(tmp_path):
    """Two writers journal interleaved trial slices into their own
    segments of one store; the fold equals the straight run."""
    reference = make_campaign().run_sweep(RATES)

    for index, segment in enumerate(("alpha", "beta")):
        campaign = make_campaign()
        with open_writer(tmp_path, campaign, MODELS, segment=segment) as store:
            for model in MODELS:
                key = config_key("", model.describe())
                trials = range(index, campaign.trials, 2)
                for outcome, sites in campaign.iter_range(model, trials):
                    store.record(key, outcome, sites)

    results = _results(tmp_path)
    for rate in RATES:
        np.testing.assert_array_equal(reference[rate].accuracies, results[rate].accuracies)
        np.testing.assert_array_equal(
            reference[rate].flip_counts, results[rate].flip_counts
        )


class TestBudget:
    def test_budget_never_evaluates_over_limit_trials(self, tmp_path):
        """--limit N means exactly N evaluations, not N+1: the worker
        truncates its claim to the remaining budget."""
        campaign = make_campaign(counting=True)
        report = drain_store(tmp_path / "s", campaign, [SPEC], max_trials=2)
        assert campaign.evaluate.calls == 2
        assert report["trials"] == 2

    def test_sweep_stopped_between_rates_is_not_reported_complete(
        self, tmp_path
    ):
        """The store is created with every rate's config registered, so
        a drain stopped after rate 1 still shows rate 2 as missing
        work."""
        drain_store(
            tmp_path / "s", make_campaign(), MODELS, max_trials=8
        )  # exactly rate 1's trials
        with CampaignStore.open(tmp_path / "s") as store:
            status = store.status()
        assert len(status["configs"]) == len(RATES)
        assert status["journaled"] == 8
        assert status["expected"] == 8 * len(RATES)
        assert not status["complete"]


class TestConvergedConfigs:
    """Stores whose manifest marks a config ``converged_at`` (an older
    build's in-store early stop) open, report and count it as done."""

    def _converge(self, store_dir, key, trials):
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["configs"]:
            if entry["key"] == key:
                entry["converged_at"] = trials
        manifest_path.write_text(json.dumps(manifest))

    def test_worker_treats_a_converged_config_as_done(self, tmp_path):
        store_dir = tmp_path / "s"
        drain_store(store_dir, make_campaign(), [SPEC], max_trials=2)
        key = config_key("", SPEC.describe())
        self._converge(store_dir, key, 2)

        resumer = make_campaign(counting=True)
        report = drain_store(store_dir, resumer, [SPEC])
        assert report["complete"] and report["trials"] == 0
        assert resumer.evaluate.calls == 0
        reference = make_campaign().run(SPEC)
        with CampaignStore.open(store_dir) as store:
            assert store.converged_at(key) == 2
            assert store.complete(key)
            assert store.status()["complete"]
            result = store.result(key)
        np.testing.assert_array_equal(reference.accuracies[:2], result.accuracies)

    def test_only_the_unconverged_configs_are_drained(self, tmp_path):
        store_dir = tmp_path / "s"
        drain_store(store_dir, make_campaign(), MODELS, max_trials=3)
        self._converge(store_dir, config_key("", MODELS[0].describe()), 3)
        report = drain_store(store_dir, make_campaign(), MODELS)
        assert report["complete"]
        assert report["trials"] == 8  # rate 2's trials; rate 1 stays at 3
        with CampaignStore.open(store_dir) as store:
            assert store.status()["expected"] == 3 + 8
