"""Extension experiments (EXT-A/E/F/L/M, ABL-H/W) at smoke scale.

Every runner runs its full grid on a LeNet context; ``PRESET.trials``
alone keeps that cheap.
"""

import pytest

from repro.eval.experiments import (
    SMOKE,
    extensions,
    prepare_context,
    run_activation_fault_comparison,
    run_ecc_comparison,
    run_fault_model_comparison,
    run_format_ablation,
    run_hard_deploy_ablation,
    run_layer_vulnerability,
    run_mobilenet_panel,
)

PRESET = SMOKE.with_overrides(
    image_size=16, train_samples=300, test_samples=120, train_epochs=10,
    post_epochs=2, trials=2,
)


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    import os

    directory = tmp_path_factory.mktemp("ext-cache")
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


@pytest.fixture(scope="module")
def results(context):
    """Each runner's result on the LeNet context, computed once."""
    cache = {}

    def run(runner):
        if runner not in cache:
            cache[runner] = runner(preset=PRESET, context=context)
        return cache[runner]

    return run


@pytest.mark.parametrize(
    "runner",
    [
        run_activation_fault_comparison,
        run_ecc_comparison,
        run_fault_model_comparison,
        run_layer_vulnerability,
        run_hard_deploy_ablation,
        run_format_ablation,
    ],
    ids=lambda runner: runner.__name__,
)
def test_title_names_the_context_model(results, runner):
    """Titles name the model the table was measured on, not a default."""
    result = results(runner)
    assert "lenet/synth10" in result.title
    assert "vgg16" not in result.to_text()


class TestActivationFaultComparison:
    def test_result_structure(self, results):
        result = results(run_activation_fault_comparison)
        assert set(result.data) == set(extensions.ACTIVATION_METHODS)
        columns = {"clean", *(f"n={n}" for n in extensions.FLIPS_PER_LAYER)}
        for row in result.data.values():
            assert set(row) == columns
            assert all(0.0 <= v <= 1.0 for v in row.values())
        assert "EXT-A" in result.to_text()

    def test_rows_match_methods(self, results):
        result = results(run_activation_fault_comparison)
        assert [row[0] for row in result.rows] == list(
            extensions.ACTIVATION_METHODS
        )


class TestECCComparison:
    def test_memory_and_structure(self, results):
        result = results(run_ecc_comparison)
        assert set(result.data) == {
            label
            for method in extensions.ECC_METHODS
            for label in (method, f"{method}+ecc")
        }
        # SEC-DED parity storage: 39/32 of the plain footprint.
        plain = result.data["none"]["memory_mb"]
        ecc = result.data["none+ecc"]["memory_mb"]
        # (byte counts round to integers, hence the loose tolerance)
        assert ecc == pytest.approx(plain * 39 / 32, rel=1e-3)
        # FitAct carries λ words on top.
        assert result.data["fitact"]["memory_mb"] > plain
        assert "corrected_words" in result.data["none+ecc"]
        assert "'pass'" in result.title


class TestFaultModelComparison:
    def test_budget_and_flip_accounting(self, results):
        result = results(run_fault_model_comparison)
        labels = {
            "iid flips", "burst L=4", "burst L=8", "stuck-at-0", "stuck-at-1",
            "word random", "word zero",
        }
        assert set(result.data) == labels
        iid_flips = result.data["iid flips"]["mean_flips"]
        assert iid_flips >= 1
        # Stuck-at effective flips are data-masked: never above the budget.
        assert result.data["stuck-at-0"]["mean_flips"] <= iid_flips
        assert result.data["stuck-at-1"]["mean_flips"] <= iid_flips
        # Burst totals stay within burst_count x length of the budget.
        assert result.data["burst L=4"]["mean_flips"] <= iid_flips + 4
        # Word replacement flips at most 32 bits per corrupted word.
        assert result.data["word random"]["mean_flips"] <= (iid_flips // 16 + 1) * 32
        for row in result.data.values():
            assert 0.0 <= row["none"] <= 1.0
            assert 0.0 <= row["fitact"] <= 1.0


class TestMobilenetPanel:
    # Faulty Q15.16 extremes legitimately overflow float32 during the
    # campaign forward passes; inf/NaN logits are part of the physics.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_structure_at_smoke_scale(self, isolated_cache):
        preset = PRESET.with_overrides(
            image_size=32, model_scale=0.125, train_epochs=4, post_epochs=1,
            trials=1, train_samples=200, test_samples=80,
        )
        result = run_mobilenet_panel(preset=preset)
        rates = [k for k in result.data if k != "clean"]
        assert len(rates) == len(preset.rates)
        labels = [label for label, _, _ in extensions.MOBILENET_SCHEMES]
        assert list(result.data["clean"]) == labels
        for rate in rates:
            assert all(0.0 <= result.data[rate][label] <= 1.0 for label in labels)
        assert "EXT-M" in result.to_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flips_column_is_each_schemes_own(self, isolated_cache, monkeypatch):
        """Each scheme's mean realised flips, in scheme order (the column
        once printed the first scheme's expected flips for every one)."""
        from repro.fault.campaign import FaultCampaign

        realised: dict[str, list[float]] = {}
        run = FaultCampaign.run

        def recording_run(self, fault_model, tag="", **kwargs):
            result = run(self, fault_model, tag=tag, **kwargs)
            realised.setdefault(tag, []).append(float(result.flip_counts.mean()))
            return result

        monkeypatch.setattr(extensions.FaultCampaign, "run", recording_run)
        preset = PRESET.with_overrides(
            image_size=32, model_scale=0.125, train_epochs=1, post_epochs=1,
            trials=2, train_samples=64, test_samples=32,
        )
        result = run_mobilenet_panel(preset=preset)
        assert result.headers[:2] == ["fault rate", "mean flips per scheme"]
        own = [
            realised[f"ext-m:{label}"]
            for label, _, _ in extensions.MOBILENET_SCHEMES
        ]
        assert all(len(flips) == len(preset.rates) for flips in own)
        assert len(result.rows) == len(preset.rates)
        for index, row in enumerate(result.rows):
            assert row[1] == " / ".join(f"{flips[index]:.1f}" for flips in own)
        # FitAct's bound words enlarge its fault space.
        assert sum(realised["ext-m:fitact"]) > sum(realised["ext-m:none"])


class TestLayerVulnerability:
    def test_groups_cover_depth(self, results):
        result = results(run_layer_vulnerability)
        assert 1 <= len(result.data) <= extensions.MAX_GROUPS
        for row in result.data.values():
            assert set(row) == set(extensions.METHODS)
            assert all(0.0 <= value <= 1.0 for value in row.values())
        assert "EXT-L" in result.to_text()


class TestHardDeployAblation:
    def test_variants_and_reference(self, results):
        result = results(run_hard_deploy_ablation)
        assert set(result.data) == {
            "smooth (FitReLU)",
            "hard (FitReLU-Naive)",
            "plain",
        }
        smooth = result.data["smooth (FitReLU)"]
        hard = result.data["hard (FitReLU-Naive)"]
        # Both deployment forms carry the same tuned bounds; clean
        # accuracy must agree closely (the gate band is ~10% of λ).
        assert abs(smooth["clean"] - hard["clean"]) < 0.15
        assert smooth["seconds"] > 0 and hard["seconds"] > 0
        assert "runtime_overhead" in smooth


class TestFormatAblation:
    def test_width_scaling_and_quantisation_loss(self, results):
        result = results(run_format_ablation)
        assert set(result.data) == {
            f"{fmt}:{method}"
            for fmt in extensions.FORMATS
            for method in extensions.METHODS
        }
        narrow = result.data["q7.8:none"]
        wide = result.data["q15.16:none"]
        # Expected flips scale with word width at a fixed per-bit rate.
        assert wide["expected_flips"] == pytest.approx(
            narrow["expected_flips"] * 2, rel=1e-6
        )
        # 16-bit quantisation of a small trained LeNet stays usable.
        assert narrow["clean"] > 0.4

    def test_custom_format_spec(self, results):
        """Each ``qI.F`` spec is parsed and rendered in canonical form."""
        text = results(run_format_ablation).to_text()
        for name in ("Q3.4", "Q7.8", "Q15.16"):
            assert f"\n{name} " in text
