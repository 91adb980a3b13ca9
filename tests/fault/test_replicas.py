"""Replica lanes: bit-identity with the per-trial reference.

A :class:`FaultCampaign` over ``Evaluator.bind`` evaluates every trial
through the evaluator's lane hook (``lane_accuracies``), which shares
one cached clean-prefix forward per batch across the whole campaign.
Its accuracy/flip stream must be *bit-identical* — same float32
accuracies, same flip counts, same order — to a campaign over a closure
without the hook (``lambda: evaluator.accuracy(model)``), which injects
and runs the full forward per trial.  The suite pins that across
registry architectures, every fault model and injector the experiments
bind, the unquantised first-trial fallback, and the sampling laziness
the lane path keeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator
from repro.fault import (
    BitFlipFaultModel,
    BurstFaultModel,
    ECCProtectedInjector,
    FaultCampaign,
    FaultInjector,
    StuckAtFaultModel,
    WordFaultModel,
)
from repro.models.registry import build_model
from repro.quant import quantize_module

ARCHS = ["lenet", "alexnet", "resnet18", "resnet50"]
SPEC = BitFlipFaultModel.at_rate(3e-6)
SPECS = (SPEC, BitFlipFaultModel.exact(1))


def _campaign(
    name, lanes=True, trials=6, quantize=True, scale=None, injector=FaultInjector
):
    """A campaign over a fresh model, through the lane hook or around it.

    ``lanes=False`` binds a plain closure, the per-trial reference: the
    campaign then injects and calls it once per trial.
    """
    if scale is None:
        scale = 0.5 if name == "lenet" else 0.125
    model = build_model(name, num_classes=10, scale=scale, image_size=16, seed=0)
    if quantize:
        model = quantize_module(model)
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=128, image_size=16, seed=0, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=64, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
    )
    evaluate = evaluator.bind(model) if lanes else lambda: evaluator.accuracy(model)
    return FaultCampaign(injector(model), evaluate, trials=trials, seed=0)


def _assert_same_stream(lanes, reference):
    assert lanes.accuracies.tobytes() == reference.accuracies.tobytes()
    assert lanes.flip_counts.tobytes() == reference.flip_counts.tobytes()


@pytest.mark.parametrize("name", ARCHS)
def test_replica_batched_stream_bit_identical(name):
    """The lane acceptance, per architecture: same bytes as per-trial."""
    for spec in SPECS:
        _assert_same_stream(
            _campaign(name).run(spec), _campaign(name, lanes=False).run(spec)
        )


def _ecc(model):
    return ECCProtectedInjector(FaultInjector(model))


@pytest.mark.parametrize(
    ("spec", "injector"),
    [
        (BitFlipFaultModel.at_rate(3e-6), FaultInjector),
        (BitFlipFaultModel.exact(1), FaultInjector),
        (StuckAtFaultModel.exact(0, 8), FaultInjector),
        (StuckAtFaultModel.exact(1, 8), FaultInjector),
        (BurstFaultModel.exact(4, 2), FaultInjector),
        (WordFaultModel.exact("random", 1), FaultInjector),
        (BitFlipFaultModel.at_rate(3e-5), _ecc),
    ],
    ids=[
        "bitflip-rate",
        "bitflip-exact1",
        "stuck-at-0",
        "stuck-at-1",
        "burst",
        "word",
        "ecc",
    ],
)
def test_every_fault_model_and_injector_matches_the_closure(spec, injector):
    """What the experiments bind (figs 5/6, EXT-E's ECC, EXT-F's fault
    models) runs the lane path and keeps the per-trial stream."""
    lanes = _campaign("lenet", trials=5, injector=injector).run(spec)
    reference = _campaign("lenet", lanes=False, trials=5, injector=injector).run(spec)
    _assert_same_stream(lanes, reference)


def test_unquantised_model_first_group_fallback_is_identical():
    """Before the first restore an unquantised model's live params are
    not canonically clean (decode∘encode is lossy), so the first trial
    must take the exact per-trial loop — and still match the closure."""
    _assert_same_stream(
        _campaign("lenet", quantize=False).run(SPEC),
        _campaign("lenet", lanes=False, quantize=False).run(SPEC),
    )


def test_zero_flip_trials_replay_clean_accuracy():
    """at_rate draws zero flips for some trials; the lane path must
    serve those from the shared clean pass, not skip them."""
    result = _campaign("lenet", trials=8).run(SPEC)
    assert (result.flip_counts == 0).any()
    clean = _campaign("lenet", lanes=False, trials=8).run(SPEC)
    assert result.accuracies.tobytes() == clean.accuracies.tobytes()


class TestLazySampling:
    """Fault sites are sampled just before their trial runs."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"sample": 0, "lanes": 0}
        sample = FaultInjector.sample
        lane_accuracies = Evaluator.lane_accuracies

        def counted_sample(self, *args, **kwargs):
            counts["sample"] += 1
            return sample(self, *args, **kwargs)

        def counted_lanes(self, model, injector, site_sets):
            counts["lanes"] += len(site_sets)
            return lane_accuracies(self, model, injector, site_sets)

        monkeypatch.setattr(FaultInjector, "sample", counted_sample)
        monkeypatch.setattr(Evaluator, "lane_accuracies", counted_lanes)
        return counts

    def test_run_samples_and_evaluates_each_trial_once(self, counted):
        campaign = _campaign("lenet", trials=9)
        result = campaign.run(SPEC)
        assert result.trials == 9
        assert counted == {"sample": 9, "lanes": 9}

    def test_iter_range_samples_only_what_the_caller_consumes(self, counted):
        campaign = _campaign("lenet", trials=8)
        stream = campaign.iter_range(SPEC, range(8))
        for _ in range(2):
            next(stream)
        stream.close()
        assert counted == {"sample": 2, "lanes": 2}


def test_lane_accuracies_matches_inject_loop_directly():
    """The Evaluator hook itself (no campaign): lanes == serial loop."""
    model = quantize_module(
        build_model("alexnet", num_classes=10, scale=0.25, image_size=16, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=64, image_size=16, seed=1, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=32, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
    )
    injector = FaultInjector(model)
    site_sets = [injector.sample(BitFlipFaultModel.exact(2), rng=lane) for lane in range(3)]
    site_sets.append(injector.sample(BitFlipFaultModel.exact(0), rng=9))

    bound = evaluator.bind(model)
    lanes = bound.lane_accuracies(injector, site_sets)

    serial = []
    for sites in site_sets:
        with injector.inject(sites):
            serial.append(bound())
    assert np.asarray(lanes).tobytes() == np.asarray(serial).tobytes()
