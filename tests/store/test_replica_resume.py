"""Durability contract under replica lanes: same store bytes.

A campaign over ``Evaluator.bind`` evaluates each trial as a replica
lane; one over a closure without the lane hook injects and runs the
full forward per trial.  Which path evaluated a trial is not identity:
their journals must match byte for byte, a resume may switch
paths mid-campaign, segment writers on different paths fold to the
straight journal, and the rendered atlas is byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.store import CampaignStore, build_atlas, config_key
from repro.store.encoding import exact_json_dumps
from tests.conftest import drain_store, journal_lines, open_writer

RATES = (1e-6, 5e-6)
MODELS = [BitFlipFaultModel.at_rate(rate) for rate in RATES]
SPEC = BitFlipFaultModel.at_rate(5e-6)


def make_campaign(lanes=True, trials=8):
    model = quantize_module(
        build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=128, image_size=16, seed=0, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=64, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
    )
    evaluate = evaluator.bind(model) if lanes else lambda: evaluator.accuracy(model)
    return FaultCampaign(FaultInjector(model), evaluate, trials=trials, seed=11)


def _atlas_bytes(path):
    store = CampaignStore.open(path)
    try:
        atlas = build_atlas(store, baseline=1.0, tolerance=0.01)
    finally:
        store.close()
    return exact_json_dumps(atlas, indent=2, sort_keys=True)


def _run_store(tmp_path, name, lanes, interrupt_at=None):
    store_dir = tmp_path / name
    drain_store(
        store_dir, make_campaign(lanes=lanes), MODELS, max_trials=interrupt_at
    )
    return store_dir


class TestReplicaStoreIdentity:
    def test_journal_and_atlas_bytes_match_per_trial_path(self, tmp_path):
        per_trial = _run_store(tmp_path, "per-trial", lanes=False)
        on = _run_store(tmp_path, "lanes", lanes=True)
        assert journal_lines(per_trial) == journal_lines(on)
        assert _atlas_bytes(per_trial) == _atlas_bytes(on)

    def test_interrupted_replica_run_resumes_to_identical_store(self, tmp_path):
        reference = _run_store(tmp_path, "straight", lanes=False)
        resumed_dir = _run_store(tmp_path, "resumed", lanes=True, interrupt_at=5)
        report = drain_store(resumed_dir, make_campaign(lanes=True), MODELS)
        assert report["trials"] == len(RATES) * 8 - 5
        assert journal_lines(reference) == journal_lines(resumed_dir)
        assert _atlas_bytes(reference) == _atlas_bytes(resumed_dir)

    def test_cross_width_resume_is_not_an_identity_mismatch(self, tmp_path):
        """A store written per trial (no lanes) re-opens under the lane
        path."""
        store_dir = _run_store(tmp_path, "cross", lanes=False, interrupt_at=3)
        drain_store(store_dir, make_campaign(lanes=True), MODELS)
        reference = make_campaign(lanes=False).run_sweep(RATES)
        with CampaignStore.open(store_dir) as store:
            for rate, model in zip(RATES, MODELS):
                resumed = store.result(config_key("", model.describe()))
                np.testing.assert_array_equal(
                    reference[rate].accuracies, resumed.accuracies
                )

    def test_segment_fold_is_width_agnostic(self, tmp_path):
        """Two segment writers, one through the lanes and one per trial,
        each taking interleaved trials, fold to the straight per-trial
        journal."""
        straight = _run_store(tmp_path, "straight", lanes=False)
        folded = tmp_path / "folded"
        keys = [config_key("", model.describe()) for model in MODELS]
        for index, (segment, lanes) in enumerate((("alpha", True), ("beta", False))):
            campaign = make_campaign(lanes=lanes)
            with open_writer(folded, campaign, MODELS, segment=segment) as store:
                for key, model in zip(keys, MODELS):
                    trials = range(index, campaign.trials, 2)
                    for outcome, sites in campaign.iter_range(model, trials):
                        store.record(key, outcome, sites)

        reference = CampaignStore.open(straight)
        try:
            with CampaignStore.open(folded) as store:
                assert store.config_keys() == reference.config_keys()
                for key in keys:
                    assert store.complete(key)
                    assert store.records(key) == reference.records(key)
        finally:
            reference.close()
        assert _atlas_bytes(folded) == _atlas_bytes(straight)

    def test_replica_groups_respect_the_journal_budget(self, tmp_path, monkeypatch):
        """A worker must not sample, evaluate or journal past its trial
        budget: it truncates its claim to what it may still journal."""
        evaluated = []
        lane_accuracies = Evaluator.lane_accuracies

        def counted(self, model, injector, site_sets):
            evaluated.extend(site_sets)
            return lane_accuracies(self, model, injector, site_sets)

        monkeypatch.setattr(Evaluator, "lane_accuracies", counted)
        store_dir = tmp_path / "budget"
        report = drain_store(
            store_dir, make_campaign(lanes=True), [SPEC], max_trials=3
        )
        assert report["trials"] == 3
        assert len(evaluated) == 3
