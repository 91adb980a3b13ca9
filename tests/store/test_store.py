"""The campaign store: format, durability, identity, old stores."""

import json
import os

import numpy as np
import pytest

from repro import nn
from repro.autograd.ops_conv import NUMERICS
from repro.core.fitrelu import NUMERICS as FITRELU_NUMERICS
from repro.errors import ConfigurationError
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector, TrialOutcome
from repro.quant import quantize_module
from repro.store import CampaignStore, StoredFaultModel, StoreError
from tests.conftest import create_store, open_writer


def _model():
    return quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )


class _ParamHealth:
    """Accuracy proxy (deterministic in the fault pattern)."""

    def __init__(self, model):
        self.model = model

    def __call__(self) -> float:
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


def make_campaign(trials=6, seed=0):
    model = _model()
    injector = FaultInjector(model)
    return FaultCampaign(
        injector,
        _ParamHealth(model),
        trials=trials,
        seed=seed,
    )


SPEC = BitFlipFaultModel.at_rate(5e-3)


class TestCreateOpen:
    def test_create_writes_the_manifest_alone(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(), meta={"note": "hi"})
        assert os.listdir(tmp_path / "s") == ["manifest.json"]
        assert store.trials == 6
        assert store.seed == 0
        assert store.identity["shard"] is None  # fixed; see TestOldStores
        assert store.meta == {"note": "hi"}
        assert store.layers  # the injector's parameter names
        assert store.identity["fingerprint"].startswith("sha256:")

    def test_open_missing_store_is_error(self, tmp_path):
        with pytest.raises(StoreError):
            CampaignStore.open(tmp_path / "nope")

    def test_reopen_preserves_exact_floats(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
        (key,) = store.config_keys()
        accuracy = 1.0 / 3.0  # not exactly representable in decimal
        store.record(key, TrialOutcome(0, accuracy, 2), [(0, 3)])
        store.close()
        reopened = CampaignStore.open(tmp_path / "s")
        record = reopened.records(key)[0]
        assert record.accuracy == accuracy  # bit-identical float64
        assert record.flips == 2
        assert record.sites == ((0, 3),)

    def test_a_store_opened_without_a_segment_is_read_only(self, tmp_path):
        create_store(tmp_path / "s", make_campaign(), [SPEC])
        with CampaignStore.open(tmp_path / "s") as store:
            (key,) = store.config_keys()
            with pytest.raises(StoreError, match="read-only"):
                store.record(key, TrialOutcome(0, 0.5, 1), [])
        assert os.listdir(tmp_path / "s") == ["manifest.json"]

    def test_racing_creators_keep_the_first_sweep(self, tmp_path, monkeypatch):
        """Both creators pass the existence check; only the first
        manifest lands, and the second creator is told to join."""
        monkeypatch.setattr(CampaignStore, "exists", classmethod(lambda cls, p: False))
        identity = CampaignStore.campaign_identity(make_campaign())
        first = CampaignStore.create(tmp_path / "s", identity, configs=[SPEC])
        first.close()
        with pytest.raises(StoreError, match="already holds"):
            CampaignStore.create(tmp_path / "s", identity, meta={"loser": True})
        monkeypatch.undo()
        with CampaignStore.open(tmp_path / "s") as store:
            assert store.config_keys() == first.config_keys()
            assert len(store.config_keys()) == 1
            assert "loser" not in store.meta
        assert sorted(os.listdir(tmp_path / "s")) == ["manifest.json"]

    def test_attach_rejects_mismatched_identity(self, tmp_path):
        create_store(tmp_path / "s", make_campaign(seed=0))
        with pytest.raises(StoreError, match="seed"):
            open_writer(tmp_path / "s", make_campaign(seed=1))
        with pytest.raises(StoreError, match="trials"):
            open_writer(tmp_path / "s", make_campaign(trials=9))

    def test_edited_manifest_fails_config_hash(self, tmp_path):
        create_store(tmp_path / "s", make_campaign())
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["identity"]["seed"] = 99  # tamper without re-hashing
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="config hash"):
            CampaignStore.open(tmp_path / "s")


class TestJournalDurability:
    def _store_with_records(self, tmp_path, count=3):
        store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
        (key,) = store.config_keys()
        for index in range(count):
            store.record(
                key, TrialOutcome(index, 0.5 + index / 10, index), [(0, index)]
            )
        store.close()
        return key

    def test_torn_trailing_record_is_ignored_and_truncated(self, tmp_path):
        key = self._store_with_records(tmp_path)
        journal = tmp_path / "s" / "trials.w.jsonl"
        intact = journal.read_bytes()
        journal.write_bytes(intact + b'{"c":"::rate=0.005","t":3,"a":0.9')
        reopened = CampaignStore.open(tmp_path / "s", segment="w")
        assert sorted(reopened.records(key)) == [0, 1, 2]
        # The next append reclaims the torn tail first.
        reopened.record(key, TrialOutcome(3, 0.9, 1), [])
        reopened.close()
        final = CampaignStore.open(tmp_path / "s")
        assert sorted(final.records(key)) == [0, 1, 2, 3]
        assert journal.read_bytes().startswith(intact)
        assert journal.read_bytes().count(b"\n") == 4

    def test_corrupt_mid_journal_is_an_error(self, tmp_path):
        self._store_with_records(tmp_path)
        journal = tmp_path / "s" / "trials.w.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"garbage": true}\n'
        journal.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="line 2"):
            CampaignStore.open(tmp_path / "s")

    def test_duplicate_record_rejected(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [])
        with pytest.raises(ConfigurationError, match="already journaled"):
            store.record(key, TrialOutcome(0, 0.5, 1), [])

    def test_unknown_config_rejected(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign())
        with pytest.raises(StoreError, match="no config"):
            store.record("nope", TrialOutcome(0, 0.5, 1), [])


class TestCompleteness:
    def test_result_requires_a_complete_config(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(trials=3), [SPEC])
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.25, 1), [])
        assert store.missing_indices(key) == [1, 2]
        with pytest.raises(StoreError, match="incomplete"):
            store.result(key)
        store.record(key, TrialOutcome(1, 0.5, 2), [])
        store.record(key, TrialOutcome(2, 0.75, 3), [])
        result = store.result(key)
        np.testing.assert_array_equal(result.accuracies, [0.25, 0.5, 0.75])
        np.testing.assert_array_equal(result.flip_counts, [1, 2, 3])
        assert isinstance(result.fault_model, StoredFaultModel)
        assert result.fault_model.describe() == SPEC.describe()

    def test_status_counts(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(trials=2), [SPEC])
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [])
        status = store.status()
        assert status["journaled"] == 1
        assert status["expected"] == 2
        assert not status["complete"]
        (config,) = status["configs"]
        assert config["tag"] == ""
        assert config["journaled"] == 1


class TestOldStores:
    """Manifests written before static shards were removed."""

    def _rewrite_identity(self, path, drop=(), **changes):
        from repro.store.store import _identity_hash

        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["identity"].update(changes)
        for key in drop:
            del manifest["identity"][key]
        manifest["config_hash"] = _identity_hash(manifest["identity"])
        manifest_path.write_text(json.dumps(manifest))

    def test_unsharded_identity_keeps_its_config_hash(self, tmp_path):
        """``"shard": null`` stays in the identity, so stores written
        with it reopen, attach and resume with no migration."""
        store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [])
        config_hash = store.config_hash
        store.close()
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())[
            "identity"
        ]["shard"] is None
        with open_writer(tmp_path / "s", make_campaign()) as store:
            assert store.config_hash == config_hash
            assert sorted(store.records(key)) == [0]

    def test_sharded_store_is_refused_on_open(self, tmp_path):
        create_store(tmp_path / "s", make_campaign())
        self._rewrite_identity(tmp_path / "s", shard=[1, 2])
        with pytest.raises(StoreError, match="shard") as raised:
            CampaignStore.open(tmp_path / "s")
        assert "fresh store" in str(raised.value)
        assert "campaign run" in str(raised.value)
        with pytest.raises(StoreError, match="shard"):
            open_writer(tmp_path / "s", make_campaign())

    def test_store_without_numerics_is_refused(self, tmp_path):
        """Stores written before conv numerics were recorded ran the
        older arithmetic: refuse them instead of mixing trials."""
        create_store(tmp_path / "s", make_campaign())
        self._rewrite_identity(tmp_path / "s", drop=("numerics",))
        with pytest.raises(StoreError, match="no 'numerics' identity field") as raised:
            open_writer(tmp_path / "s", make_campaign())
        assert "fresh store" in str(raised.value)
        with CampaignStore.open(tmp_path / "s") as store:  # still readable
            with pytest.raises(StoreError, match="numerics"):
                store.attach(make_campaign())

    def test_store_with_other_numerics_is_refused(self, tmp_path):
        create_store(tmp_path / "s", make_campaign())
        self._rewrite_identity(tmp_path / "s", numerics="conv-position-major")
        with pytest.raises(
            StoreError, match="'numerics' = 'conv-position-major'"
        ) as raised:
            open_writer(tmp_path / "s", make_campaign())
        assert NUMERICS in str(raised.value)
        assert "fresh store" in str(raised.value)

    def test_store_from_the_sigmoid_fitrelu_is_refused(self, tmp_path):
        """Stores written while FitReLU ran its sigmoid form record the
        conv tag alone: same conv arithmetic, other FitReLU bits."""
        create_store(tmp_path / "s", make_campaign())
        self._rewrite_identity(tmp_path / "s", numerics=NUMERICS)
        with pytest.raises(StoreError, match=f"'numerics' = '{NUMERICS}'") as raised:
            open_writer(tmp_path / "s", make_campaign())
        assert f"compute '{FaultCampaign.numerics}'" in str(raised.value)
        assert "fresh store" in str(raised.value)

    def test_fresh_store_records_numerics_and_resumes(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
        assert store.identity["numerics"] == FaultCampaign.numerics
        assert FaultCampaign.numerics == f"{NUMERICS}+{FITRELU_NUMERICS}"
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [])
        store.close()
        with open_writer(tmp_path / "s", make_campaign()) as store:
            assert sorted(store.records(key)) == [0]
