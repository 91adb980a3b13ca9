"""The vulnerability atlas: aggregation semantics and rendering."""

import json

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.eval.reporting import format_atlas
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector, TrialOutcome
from repro.quant import quantize_module
from repro.store import CampaignStore, build_atlas
from tests.conftest import drain_store, open_writer

SPEC = BitFlipFaultModel.exact(2)


def _model():
    return quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )


def make_campaign(trials=4):
    model = _model()
    return FaultCampaign(
        FaultInjector(model), lambda: 1.0, trials=trials, seed=0
    )


@pytest.fixture()
def handmade_store(tmp_path):
    """A store with a hand-written journal so expectations are exact.

    Layer table comes from the tiny Sequential: 0.weight, 0.bias,
    2.weight, 2.bias.  Trials:

    - t0: hits layer 0 bits 3+17, accuracy 0.90 (SDC at baseline 1.0)
    - t1: hits layers 0 and 2 bit 31, accuracy 0.50 (SDC)
    - t2: hits layer 2 bit 3, accuracy 1.00 (not an SDC)
    - t3: no flips (Binomial drew zero), accuracy 1.00
    """
    store = open_writer(tmp_path / "s", make_campaign(), [SPEC])
    (key,) = store.config_keys()
    store.record(key, TrialOutcome(0, 0.90, 2), [(0, 3), (0, 17)])
    store.record(key, TrialOutcome(1, 0.50, 2), [(0, 31), (2, 31)])
    store.record(key, TrialOutcome(2, 1.00, 1), [(2, 3)])
    store.record(key, TrialOutcome(3, 1.00, 0), [])
    yield store
    store.close()


class TestBuildAtlas:
    def test_layer_rows(self, handmade_store):
        atlas = build_atlas(handmade_store, baseline=1.0, tolerance=0.01)
        assert atlas["trials"] == 4
        assert atlas["trials_with_faults"] == 3
        assert atlas["flips"] == 5
        by_layer = {row["layer"]: row for row in atlas["layers"]}
        assert set(by_layer) == {"0.weight", "2.weight"}
        first = by_layer["0.weight"]
        assert first["trials"] == 2
        assert first["flips"] == 3
        assert first["sdc"] == 2
        assert first["sdc_rate"] == 1.0
        assert first["mean_accuracy"] == pytest.approx(0.70)
        assert first["min_accuracy"] == 0.50
        second = by_layer["2.weight"]
        assert second["trials"] == 2
        assert second["sdc"] == 1
        assert second["mean_accuracy"] == pytest.approx(0.75)
        assert atlas["layers_unhit"] == 2  # the two bias tensors

    def test_bit_rows(self, handmade_store):
        atlas = build_atlas(handmade_store, baseline=1.0)
        by_bit = {row["bit"]: row for row in atlas["bits"]}
        assert set(by_bit) == {3, 17, 31}
        # Bit 3 appears in t0 (SDC) and t2 (clean); trial-level
        # attribution counts each trial once even with 2 sites.
        assert by_bit[3]["trials"] == 2
        assert by_bit[3]["sdc"] == 1
        assert by_bit[31]["trials"] == 1
        assert by_bit[31]["sdc"] == 1
        assert by_bit[17]["flips"] == 1
        low, high = by_bit[31]["sdc_ci"]
        assert 0.0 <= low <= 1.0 / 1 <= high <= 1.0

    def test_multi_site_trial_counts_once_per_group(self, handmade_store):
        """t0 hit layer 0 twice: 2 flips, but only 1 trial attribution."""
        atlas = build_atlas(handmade_store, baseline=1.0)
        row = next(r for r in atlas["layers"] if r["layer"] == "0.weight")
        assert row["flips"] == 3  # 2 (t0) + 1 (t1)
        assert row["trials"] == 2  # t0, t1

    def test_baseline_from_meta(self, tmp_path):
        store = open_writer(
            tmp_path / "s", make_campaign(), [SPEC], meta={"clean_accuracy": 1.0}
        )
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [(0, 31)])
        atlas = build_atlas(store)
        assert atlas["baseline"] == 1.0
        assert atlas["layers"][0]["sdc"] == 1
        store.close()

    def test_missing_baseline_is_an_error(self, tmp_path):
        store = open_writer(tmp_path / "s", make_campaign())
        with pytest.raises(ConfigurationError, match="baseline"):
            build_atlas(store)
        store.close()

    def test_atlas_is_json_ready(self, handmade_store):
        atlas = build_atlas(handmade_store, baseline=1.0)
        roundtrip = json.loads(json.dumps(atlas))
        assert roundtrip["trials"] == 4


class TestFormatAtlas:
    def test_markdown_contains_both_tables(self, handmade_store):
        text = format_atlas(build_atlas(handmade_store, baseline=1.0))
        assert "### By layer" in text
        assert "### By bit position" in text
        assert "0.weight" in text
        assert "| 31 " in text or "| 31" in text
        assert "2 of 4 layers saw no faults" in text

    def test_layers_ranked_most_vulnerable_first(self, handmade_store):
        text = format_atlas(build_atlas(handmade_store, baseline=1.0))
        assert text.index("0.weight") < text.index("2.weight")

    def test_empty_journal_renders_placeholders(self, tmp_path):
        store = open_writer(
            tmp_path / "s", make_campaign(), meta={"clean_accuracy": 1.0}
        )
        text = format_atlas(build_atlas(store))
        assert "(no fault sites journaled yet)" in text
        store.close()


class TestOrderIndependence:
    def test_atlas_is_identical_regardless_of_journal_append_order(
        self, tmp_path
    ):
        """A store folded from several writers' segments can hold trials
        in any order (0,2,1,3…) while a straight run journals 0,1,2,3;
        float reductions are order-sensitive, so the atlas must re-sort
        by trial index before aggregating or the byte-identity contract
        flakes by one ulp."""
        # Accuracies chosen so naive left-to-right summation differs
        # across orders in the last bit.
        values = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.30000000000000004}
        stores = {}
        for name, order in (("straight", [0, 1, 2, 3]), ("shuffled", [0, 2, 1, 3])):
            store = open_writer(tmp_path / name, make_campaign(), [SPEC])
            (key,) = store.config_keys()
            for trial in order:
                store.record(
                    key, TrialOutcome(trial, values[trial], 1), [(0, 5)]
                )
            stores[name] = store
        assert list(stores["shuffled"].records(key)) == [0, 1, 2, 3]
        straight = json.dumps(build_atlas(stores["straight"], baseline=1.0))
        shuffled = json.dumps(build_atlas(stores["shuffled"], baseline=1.0))
        assert straight == shuffled
        for store in stores.values():
            store.close()


class TestRealCampaignAtlas:
    def test_atlas_rows_reconcile_with_the_journal(self, tmp_path):
        """On a real campaign, every journaled flip lands in exactly one
        layer row and one bit row."""
        model = _model()

        def health():
            total, bad = 0, 0
            for param in model.parameters():
                total += param.size
                bad += int((np.abs(param.data) > 100).sum())
            return 1.0 - bad / total

        campaign = FaultCampaign(
            FaultInjector(model), health, trials=10, seed=7
        )
        drain_store(
            tmp_path / "s",
            campaign,
            [BitFlipFaultModel.at_rate(5e-3)],
            meta={"clean_accuracy": 1.0},
        )
        with CampaignStore.open(tmp_path / "s") as store:
            atlas = build_atlas(store)
            journal_flips = sum(
                len(record.sites)
                for record in store.records(store.config_keys()[0]).values()
            )
            assert atlas["flips"] == journal_flips
            assert sum(row["flips"] for row in atlas["layers"]) == journal_flips
            assert sum(row["flips"] for row in atlas["bits"]) == journal_flips


class TestDensityNormalisation:
    """Fault-space-normalised SDC densities (stores journaling geometry)."""

    def test_layer_density_divides_by_layer_fault_space(self, handmade_store):
        atlas = build_atlas(handmade_store, baseline=1.0, tolerance=0.01)
        by_layer = {row["layer"]: row for row in atlas["layers"]}
        # 0.weight: 4x8 words at 32 bits/word.
        first = by_layer["0.weight"]
        assert first["fault_space_bits"] == 32 * 32
        assert first["sdc_density"] == pytest.approx(1.0 / (32 * 32))
        second = by_layer["2.weight"]
        assert second["fault_space_bits"] == 16 * 32
        assert second["sdc_density"] == pytest.approx(0.5 / (16 * 32))

    def test_bit_density_divides_by_word_population(self, handmade_store):
        atlas = build_atlas(handmade_store, baseline=1.0)
        words = 32 + 8 + 16 + 2  # every word exposes each bit position once
        by_bit = {row["bit"]: row for row in atlas["bits"]}
        assert by_bit[31]["fault_space_bits"] == words
        assert by_bit[31]["sdc_density"] == pytest.approx(1.0 / words)
        assert by_bit[3]["sdc_density"] == pytest.approx(0.5 / words)

    def test_density_is_json_ready_and_rendered(self, handmade_store):
        atlas = json.loads(json.dumps(build_atlas(handmade_store, baseline=1.0)))
        assert all("sdc_density" in row for row in atlas["layers"])
        text = format_atlas(atlas)
        assert "SDC density" in text
        assert f"{1.0 / (32 * 32):.2e}" in text

    def test_store_without_geometry_omits_densities(self, tmp_path):
        """Pre-PR-8 stores (no layer_words in identity) stay readable."""
        store_dir = tmp_path / "old"
        store = open_writer(store_dir, make_campaign(), [SPEC])
        (key,) = store.config_keys()
        store.record(key, TrialOutcome(0, 0.5, 1), [(0, 31)])
        store.close()
        manifest_path = store_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        from repro.store.store import _identity_hash

        for field in ("layer_words", "word_bits"):
            manifest["identity"].pop(field, None)
        manifest["config_hash"] = _identity_hash(manifest["identity"])
        manifest_path.write_text(json.dumps(manifest))
        store = CampaignStore.open(store_dir)
        try:
            atlas = build_atlas(store, baseline=1.0)
        finally:
            store.close()
        assert all("sdc_density" not in row for row in atlas["layers"])
        text = format_atlas(atlas)
        assert "SDC density" not in text
