"""Evaluator, overhead measurement, presets, cache, and utils."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import evaluate_accuracy
from repro.data import ArrayDataset, DataLoader
from repro.errors import ConfigurationError
from repro.eval import Evaluator, measure_inference_seconds, measure_overhead
from repro.eval.experiments import FULL, QUICK, SMOKE, StateCache, get_preset
from repro.utils import Timer, derive_seed, load_state, save_state, time_callable


def _loader(n=40):
    rng = np.random.default_rng(0)
    return DataLoader(
        ArrayDataset(
            rng.standard_normal((n, 4)).astype(np.float32), rng.integers(0, 2, n)
        ),
        batch_size=16,
    )


def _model():
    return nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))


class TestEvaluator:
    def test_matches_evaluate_accuracy(self):
        loader = _loader()
        model = _model()
        evaluator = Evaluator(loader)
        assert evaluator.accuracy(model) == pytest.approx(
            evaluate_accuracy(model, loader)
        )

    def test_max_batches_caps(self):
        evaluator = Evaluator(_loader(40), max_batches=1)
        assert len(evaluator) == 16

    def test_max_batches_stops_drawing_at_the_cap(self):
        loader = _loader(80)
        drawn = []

        class Counting:
            def __iter__(self):
                for batch in loader:
                    drawn.append(batch)
                    yield batch

        evaluator = Evaluator(Counting(), max_batches=2)
        assert len(drawn) == 2
        assert len(evaluator) == 32

    def test_bind_closure(self):
        evaluator = Evaluator(_loader())
        model = _model()
        closure = evaluator.bind(model)
        assert closure() == pytest.approx(evaluator.accuracy(model))

    def test_empty_loader_raises(self):
        with pytest.raises(ConfigurationError):
            Evaluator(_loader(40), max_batches=0)


class TestOverheadMeasurement:
    def test_inference_seconds_positive(self):
        x = Tensor(np.zeros((8, 4), dtype=np.float32))
        assert measure_inference_seconds(_model(), x, repeats=2, warmup=1) > 0

    def test_measure_overhead_report(self):
        from repro.core import FitReLU

        baseline = _model()
        protected = _model()
        protected[1] = FitReLU(np.ones(8, dtype=np.float32))
        report = measure_overhead(
            baseline, protected, np.zeros((8, 4), dtype=np.float32), label="toy",
            repeats=2,
        )
        assert report.memory_overhead == pytest.approx(8 / baseline.num_parameters())
        assert report.label == "toy"


class TestPresets:
    def test_lookup(self):
        assert get_preset("quick") is QUICK
        assert get_preset("SMOKE") is SMOKE

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_preset("huge")

    def test_rates_scaled(self):
        preset = SMOKE
        assert preset.rates[0] == pytest.approx(1e-7 * preset.rate_scale)
        assert len(preset.rates) == 5

    def test_with_overrides(self):
        changed = QUICK.with_overrides(trials=9)
        assert changed.trials == 9
        assert QUICK.trials != 9 or True  # original untouched
        assert changed.name == QUICK.name

    def test_scale_override_per_model(self):
        assert QUICK.scale_for("resnet50") != QUICK.model_scale
        assert QUICK.scale_for("vgg16") == QUICK.model_scale
        assert FULL.scale_for("resnet50") == FULL.model_scale


class TestStateCache:
    def test_roundtrip(self, tmp_path):
        cache = StateCache(tmp_path)
        key = {"model": "x", "seed": 1}
        state = {"w": np.arange(4.0)}
        cache.store(key, state, {"accuracy": 0.5})
        loaded = cache.load(key)
        assert loaded is not None
        loaded_state, meta = loaded
        np.testing.assert_array_equal(loaded_state["w"], state["w"])
        assert meta["accuracy"] == 0.5

    def test_miss_returns_none(self, tmp_path):
        assert StateCache(tmp_path).load({"missing": True}) is None

    def test_different_keys_isolated(self, tmp_path):
        cache = StateCache(tmp_path)
        cache.store({"k": 1}, {"w": np.zeros(1)}, {})
        assert cache.load({"k": 2}) is None


class TestUtils:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer:
            pass
        with timer:
            pass
        assert len(timer.laps) == 2
        assert timer.elapsed >= 0
        assert timer.mean == pytest.approx(timer.elapsed / 2)

    def test_time_callable(self):
        stats = time_callable(lambda: None, repeats=3, warmup=0)
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_time_callable_validates(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_save_load_state(self, tmp_path):
        path = tmp_path / "state"
        save_state(path, {"a.b": np.ones(3)})
        loaded = load_state(path)
        np.testing.assert_array_equal(loaded["a.b"], np.ones(3))

    def test_save_state_rejects_bad_keys(self, tmp_path):
        with pytest.raises(TypeError):
            save_state(tmp_path / "x", {1: np.ones(1)})
