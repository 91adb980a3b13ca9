"""Machine-readable export of experiment results."""

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.experiments.ablations import AblationResult
from repro.eval.export import result_to_dict, save_csv, save_json
from repro.fault import BitFlipFaultModel, CampaignResult


def _ablation():
    result = AblationResult(
        title="TEST table",
        headers=["knob", "clean acc", "acc under fault"],
    )
    result.rows.append(["a", "90.00%", "70.00%"])
    result.rows.append(["b", "85.00%", "80.00%"])
    result.data["a"] = {"clean": 0.9, "faulty": 0.7}
    result.data["b"] = {"clean": 0.85, "faulty": 0.8}
    return result


class TestResultToDict:
    def test_ablation_roundtrips_through_json(self):
        payload = result_to_dict(_ablation())
        text = json.dumps(payload)  # must be serialisable
        restored = json.loads(text)
        assert restored["result_type"] == "AblationResult"
        assert restored["data"]["a"]["clean"] == 0.9
        assert restored["headers"] == ["knob", "clean acc", "acc under fault"]

    def test_numpy_values_unwrapped(self):
        result = CampaignResult(
            BitFlipFaultModel.exact(2),
            np.array([0.5, 0.75]),
            np.array([2, 2], dtype=np.int64),
        )
        payload = result_to_dict(result)
        json.dumps(payload)
        assert payload["accuracies"] == [0.5, 0.75]
        assert payload["flip_counts"] == [2, 2]
        # The fault model is a dataclass: exported field by field.
        assert payload["fault_model"]["n_flips"] == 2

    def test_nested_dataclasses(self):
        @dataclass
        class Inner:
            value: float = 1.5

        @dataclass
        class Outer:
            inner: Inner = field(default_factory=Inner)
            name: str = "x"

        payload = result_to_dict(Outer())
        assert payload["inner"]["value"] == 1.5
        assert payload["result_type"] == "Outer"

    def test_non_dataclass_rejected(self):
        with pytest.raises(ConfigurationError):
            result_to_dict(42)


class TestSaveJson:
    def test_writes_valid_json(self, tmp_path):
        path = tmp_path / "result.json"
        save_json(path, _ablation())
        with open(path, encoding="utf-8") as handle:
            restored = json.load(handle)
        assert restored["title"] == "TEST table"

    def test_real_experiment_result(self, tmp_path):
        from repro.eval.experiments import run_fig3
        from repro.eval.experiments.fig3_activation_shapes import POINTS

        path = tmp_path / "fig3.json"
        save_json(path, run_fig3())
        with open(path, encoding="utf-8") as handle:
            restored = json.load(handle)
        assert restored["result_type"] == "Fig3Result"
        json_grid = restored["grid"]
        assert len(json_grid) == POINTS


class TestSaveCsv:
    def test_table_roundtrip(self, tmp_path):
        path = tmp_path / "table.csv"
        save_csv(path, _ablation())
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["knob", "clean acc", "acc under fault"]
        assert rows[1] == ["a", "90.00%", "70.00%"]
        assert len(rows) == 3

    def test_curve_results_rejected(self, tmp_path):
        from repro.eval.experiments import run_fig3

        with pytest.raises(ConfigurationError, match="save_json"):
            save_csv(tmp_path / "x.csv", run_fig3())
