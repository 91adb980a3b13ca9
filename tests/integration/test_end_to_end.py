"""End-to-end integration: the paper's claims on the test substrate.

These tests train a real (small) model on SynthCIFAR, protect it with
each scheme, and verify the *qualitative* results of the paper: bounded
activations recover accuracy under bit-flips, FitAct's clean accuracy
respects the δ constraint, and the protection ordering holds at a
meaningful fault rate.
"""

import numpy as np
import pytest

from repro.core import (
    BoundPostTrainer,
    PostTrainingConfig,
    ProtectionConfig,
    evaluate_accuracy,
    profile_activations,
    protect_model,
)
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models import build_model
from repro.quant import quantize_module
from tests.conftest import IMAGE_SIZE, NUM_CLASSES


@pytest.fixture(scope="module")
def protected_zoo(request):
    """Train once, protect with every scheme, campaign at a fixed rate."""
    train_loader = request.getfixturevalue("train_loader")
    test_loader = request.getfixturevalue("test_loader")
    trained = request.getfixturevalue("trained_state")

    def fresh():
        model = build_model(
            "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
        )
        model.load_state_dict(trained["state"])
        return model

    profile = profile_activations(fresh(), train_loader)
    zoo = {}
    for method in ("fitact", "clipact", "ranger", "none"):
        model = fresh()
        if method != "none":
            protect_model(
                model, train_loader, ProtectionConfig(method=method), profile=profile
            )
        if method == "fitact":
            BoundPostTrainer(
                model, PostTrainingConfig(epochs=3, lr=0.02, zeta=1.0, delta=0.03)
            ).run(train_loader, test_loader, reference_accuracy=trained["accuracy"])
        quantize_module(model)
        zoo[method] = {
            "model": model,
            "clean": evaluate_accuracy(model, test_loader),
        }
    # Campaign at a rate that flips ~30 bits in this model — squarely in
    # the band where protection separates.
    for method, entry in zoo.items():
        injector = FaultInjector(entry["model"])
        rate = 30 / injector.total_bits
        campaign = FaultCampaign(
            injector,
            lambda m=entry["model"]: evaluate_accuracy(m, test_loader),
            trials=8,
            seed=1234,
        )
        entry["faulty"] = campaign.run(BitFlipFaultModel.at_rate(rate)).mean
    zoo["reference"] = trained["accuracy"]
    return zoo


class TestPaperClaims:
    def test_baseline_trains_well(self, protected_zoo):
        assert protected_zoo["reference"] > 0.7

    def test_fitact_clean_accuracy_within_delta(self, protected_zoo):
        """Eq. 8's constraint: A(ΘA) − A(ΘA, ΘR) < δ (+quantisation slack)."""
        drop = protected_zoo["reference"] - protected_zoo["fitact"]["clean"]
        assert drop < 0.03 + 0.02

    def test_baseline_protections_preserve_clean_accuracy(self, protected_zoo):
        for method in ("clipact", "ranger"):
            drop = protected_zoo["reference"] - protected_zoo[method]["clean"]
            assert drop < 0.02, method

    def test_all_protections_beat_unprotected(self, protected_zoo):
        """Paper Fig. 6, observation 1."""
        unprotected = protected_zoo["none"]["faulty"]
        for method in ("fitact", "clipact", "ranger"):
            assert protected_zoo[method]["faulty"] > unprotected + 0.05, method

    def test_fitact_beats_ranger(self, protected_zoo):
        """Paper Fig. 6, observation 3: Ranger is the weakest protection."""
        assert (
            protected_zoo["fitact"]["faulty"]
            > protected_zoo["ranger"]["faulty"] + 0.05
        )

    def test_fitact_at_least_matches_clipact(self, protected_zoo):
        """Paper Fig. 6, observation 2 (tolerance for small-model noise)."""
        assert (
            protected_zoo["fitact"]["faulty"]
            >= protected_zoo["clipact"]["faulty"] - 0.08
        )

    def test_protection_recovers_most_accuracy(self, protected_zoo):
        """FitAct under ~30 flips stays within 30 points of clean."""
        assert (
            protected_zoo["fitact"]["clean"] - protected_zoo["fitact"]["faulty"]
            < 0.30
        )


class TestFaultMechanics:
    def test_unprotected_degrades_under_heavy_faults(
        self, trained_model, test_loader
    ):
        model = quantize_module(trained_model)
        clean = evaluate_accuracy(model, test_loader)
        injector = FaultInjector(model)
        campaign = FaultCampaign(
            injector, lambda: evaluate_accuracy(model, test_loader), trials=6, seed=9
        )
        result = campaign.run(BitFlipFaultModel.exact(200))
        assert result.mean < clean - 0.2

    def test_campaign_leaves_model_clean(self, trained_model, test_loader):
        model = quantize_module(trained_model)
        clean = evaluate_accuracy(model, test_loader)
        injector = FaultInjector(model)
        campaign = FaultCampaign(
            injector, lambda: evaluate_accuracy(model, test_loader), trials=3, seed=2
        )
        campaign.run(BitFlipFaultModel.exact(100))
        assert evaluate_accuracy(model, test_loader) == pytest.approx(clean)
