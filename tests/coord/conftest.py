"""Shared helpers for the coordination-layer tests.

The campaigns here are deliberately tiny and checkpoint-free — a
quantized 4→8→2 MLP with a parameter-health evaluator — because the
coordination protocol under test is entirely about *who* evaluates
*which* trial, not about model quality.  Trial seeds depend only on
(campaign seed, tag, config spec, trial index), so any two campaign
instances built by :func:`make_campaign` journal identical records.
"""

import numpy as np
import pytest

from repro import nn
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.quant import quantize_module
from repro.store import TrialRecord, config_key
from tests.conftest import create_store

RATES = (1e-3, 5e-3)
TRIALS = 8
SEED = 11


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


def make_campaign(trials=TRIALS, seed=SEED):
    model = _model()
    return FaultCampaign(
        FaultInjector(model),
        _ParamHealth(model),
        trials=trials,
        seed=seed,
    )


def fault_models(rates=RATES):
    return [BitFlipFaultModel.at_rate(rate) for rate in rates]


def make_store(path, campaign=None, rates=RATES):
    """Create a coordinated store: manifest + the full sweep registered."""
    create_store(path, campaign or make_campaign(), fault_models(rates))
    return [config_key("", model.describe()) for model in fault_models(rates)]


def serial_records(rates=RATES):
    """The serial ground truth: every trial of every config, evaluated
    in index order through one plain campaign, as journal records."""
    campaign = make_campaign()
    records = {}
    for model in fault_models(rates):
        records[config_key("", model.describe())] = {
            outcome.index: TrialRecord(
                outcome.index, outcome.accuracy, outcome.flips, tuple(sites)
            )
            for outcome, sites in campaign.iter_range(model, range(TRIALS))
        }
    return records


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "store"
    make_store(path)
    return path
