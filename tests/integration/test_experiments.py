"""Experiment runners produce well-formed results at smoke scale.

Every runner runs its full grid on a LeNet context; ``PRESET.trials``
alone keeps that cheap.
"""

import inspect

import numpy as np
import pytest

from repro.core.post_training import PostTrainingConfig
from repro.eval.experiments import (
    EXPERIMENTS,
    SMOKE,
    StateCache,
    ablations,
    fig1_bound_sweep,
    fig3_activation_shapes,
    prepare_context,
    run_bit_position_ablation,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig5,
    run_granularity_ablation,
    run_posttraining_overhead,
    run_slope_ablation,
    run_table1,
    run_zeta_ablation,
)
from repro.eval.experiments.runner import METHODS

PRESET = SMOKE.with_overrides(
    image_size=16, train_samples=300, test_samples=120, train_epochs=10,
    post_epochs=2, trials=2,
)


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    """Point the default experiment cache at a temp dir for this module."""
    import os

    directory = tmp_path_factory.mktemp("exp-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    yield directory
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="module")
def context(isolated_cache):
    return prepare_context("lenet", "synth10", PRESET)


class TestContext:
    def test_training_metadata(self, context):
        assert context.reference_accuracy > 0.5
        assert context.training_seconds > 0

    def test_cache_hit_reproduces_weights(self, context):
        reloaded = prepare_context("lenet", "synth10", PRESET)
        assert reloaded.reference_accuracy == context.reference_accuracy
        model_a = context.fresh_model()
        model_b = reloaded.fresh_model()
        for (name, pa), (_, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

    def test_protected_model_info(self, context):
        model, info = context.protected_model("clipact")
        assert 0.0 <= info["clean_accuracy"] <= 1.0

    def test_fitact_post_training_memoised(self, context):
        _, first = context.protected_model("fitact")
        _, second = context.protected_model("fitact")
        assert "post_seconds" in first
        assert second["post_seconds"] == first["post_seconds"]


#: Small enough that training the base from scratch is cheap.
STAGE_PRESET = SMOKE.with_overrides(
    image_size=16, train_samples=128, test_samples=64, train_epochs=2,
    post_epochs=2,
)


def _state_bytes(model):
    return {name: value.tobytes() for name, value in model.state_dict().items()}


def _fitact_bytes(context, zeta):
    post = PostTrainingConfig(epochs=2, lr=0.005, zeta=zeta, delta=0.01)
    model, _ = context.protected_model("fitact", quantize=False, post_config=post)
    return _state_bytes(model)


class TestStageIndependence:
    """A protected model is a function of the recipe alone: neither a
    cache hit on the base weights nor the stages run before it may move
    its post-training shuffle."""

    def test_cold_and_warm_cache_post_train_identically(self, tmp_path):
        cache = StateCache(tmp_path / "cache")
        cold = prepare_context("lenet", "synth10", STAGE_PRESET, cache=cache)
        warm = prepare_context("lenet", "synth10", STAGE_PRESET, cache=cache)
        assert warm.training_seconds == cold.training_seconds  # a cache hit
        cold_model, _ = cold.protected_model("fitact", quantize=False)
        warm_model, _ = warm.protected_model("fitact", quantize=False)
        assert _state_bytes(cold_model) == _state_bytes(warm_model)

    def test_fitact_variants_do_not_depend_on_run_order(self, tmp_path):
        cache = StateCache(tmp_path / "cache")
        prepare_context("lenet", "synth10", STAGE_PRESET, cache=cache)
        forward = prepare_context("lenet", "synth10", STAGE_PRESET, cache=cache)
        backward = prepare_context("lenet", "synth10", STAGE_PRESET, cache=cache)
        zetas = (0.05, 0.5)
        first = {zeta: _fitact_bytes(forward, zeta) for zeta in zetas}
        second = {zeta: _fitact_bytes(backward, zeta) for zeta in reversed(zetas)}
        assert first == second


def test_runners_take_only_a_preset_and_contexts():
    """An experiment id has one definition: nothing but the preset and
    the prepared context(s) may vary a runner's output."""
    for exp_id, runner in EXPERIMENTS.items():
        parameters = set(inspect.signature(runner).parameters)
        assert parameters <= {"preset", "context", "contexts"}, exp_id


class TestFigureRunners:
    def test_fig1(self, context):
        result = run_fig1(preset=PRESET, context=context)
        assert len(result.bounds) == len(fig1_bound_sweep.FRACTIONS)
        assert result.baseline_accuracy > 0.5
        text = result.to_text()
        assert "FIG1" in text and "global bound" in text
        assert result.best_bound() in result.bounds

    def test_fig2(self, context):
        result = run_fig2(preset=PRESET, context=context)
        assert result.maxima.size > 0
        assert result.dispersion_ratio >= 1.0
        assert "FIG2" in result.to_text()

    def test_fig3(self):
        result = run_fig3()
        assert result.grid.size == fig3_activation_shapes.POINTS
        assert result.peak("ReLU") == pytest.approx(fig3_activation_shapes.GRID_MAX)
        assert result.tail_value("GBReLU") == 0.0
        assert result.tail_value("FitReLU-Naive") == 0.0
        assert result.tail_value("FitReLU") < 0.05
        assert result.peak("FitReLU") <= fig3_activation_shapes.BOUND + 1e-5
        assert "FIG3" in result.to_text()

    def test_fig5(self, context):
        result = run_fig5(preset=PRESET, context=context)
        assert list(result.sweep.sweeps) == list(METHODS)
        box = result.box(
            "clipact", result.sweep.rates[0]
        )
        assert box["min"] <= box["median"] <= box["max"]
        text = result.to_text()
        assert "Clip-Act" in text
        # Each block's flips column is that method's own mean realised
        # flips, not the first method's fault space.
        none_block = text.split("Unprotected (clean")[1]
        assert "mean flips" in none_block
        flips = [
            line.split("|")[1].strip()
            for line in none_block.splitlines()
            if line[:1].isdigit()
        ]
        assert flips == [
            f"{result.sweep.sweeps['none'][rate].flip_counts.mean():.1f}"
            for rate in result.sweep.rates
        ]

    def test_granularity_ablation(self, ablation_results):
        result = ablation_results(run_granularity_ablation)
        assert len(result.rows) == len(ablations.GRANULARITIES)
        words = {row[0]: int(row[1]) for row in result.rows}
        assert words["neuron"] > words["channel"] > words["layer"]
        assert "ABL-G" in result.to_text()


@pytest.fixture(scope="module")
def ablation_results(context):
    """Each ablation's result on the LeNet context, computed once."""
    cache = {}

    def run(runner):
        if runner not in cache:
            cache[runner] = runner(preset=PRESET, context=context)
        return cache[runner]

    return run


@pytest.mark.parametrize(
    "runner",
    [
        run_granularity_ablation,
        run_slope_ablation,
        run_zeta_ablation,
        run_bit_position_ablation,
    ],
    ids=lambda runner: runner.__name__,
)
def test_ablation_title_names_the_context_model(ablation_results, runner):
    """Titles name the model the table was measured on, not a default."""
    result = ablation_results(runner)
    assert "lenet/synth10" in result.title
    assert "vgg16" not in result.to_text()


class TestOverheadRunners:
    def test_table1_single_model(self, context):
        result = run_table1(preset=PRESET, contexts=[context])
        assert [row.label for row in result.rows] == ["synth10/lenet"]
        assert result.rows[0].memory_overhead > 0
        assert "TAB1" in result.to_text()

    def test_posttraining_overhead(self, context):
        result = run_posttraining_overhead(preset=PRESET, contexts=[context])
        assert [row["model"] for row in result.rows] == ["lenet"]
        assert result.max_ratio() > 0
        assert "§VI-C1" in result.to_text()
