"""Extension experiments (EXT-A/E/F, ABL-W) at smoke scale."""

import pytest

from repro.eval.experiments import (
    SMOKE,
    prepare_context,
    run_activation_fault_comparison,
    run_ecc_comparison,
    run_fault_model_comparison,
    run_format_ablation,
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


class TestActivationFaultComparison:
    def test_result_structure(self, context):
        result = run_activation_fault_comparison(
            preset=PRESET,
            model_name="lenet",
            methods=("none", "clipact"),
            flips_per_layer=(1, 8),
            trials=2,
            context=context,
        )
        assert set(result.data) == {"none", "clipact"}
        for row in result.data.values():
            assert set(row) == {"clean", "n=1", "n=8"}
            assert all(0.0 <= v <= 1.0 for v in row.values())
        assert "EXT-A" in result.to_text()

    def test_rows_match_methods(self, context):
        result = run_activation_fault_comparison(
            preset=PRESET,
            model_name="lenet",
            methods=("none",),
            flips_per_layer=(4,),
            trials=2,
            context=context,
        )
        assert len(result.rows) == 1
        assert result.rows[0][0] == "none"


class TestECCComparison:
    def test_memory_and_structure(self, context):
        result = run_ecc_comparison(
            preset=PRESET,
            model_name="lenet",
            methods=("none", "fitact"),
            rate_indices=(2,),
            trials=2,
            context=context,
        )
        assert set(result.data) == {"none", "none+ecc", "fitact", "fitact+ecc"}
        # SEC-DED parity storage: 39/32 of the plain footprint.
        plain = result.data["none"]["memory_mb"]
        ecc = result.data["none+ecc"]["memory_mb"]
        # (byte counts round to integers, hence the loose tolerance)
        assert ecc == pytest.approx(plain * 39 / 32, rel=1e-3)
        # FitAct carries λ words on top.
        assert result.data["fitact"]["memory_mb"] > plain
        assert "corrected_words" in result.data["none+ecc"]

    def test_zero_policy_accepted(self, context):
        result = run_ecc_comparison(
            preset=PRESET,
            model_name="lenet",
            methods=("none",),
            rate_indices=(0,),
            double_policy="zero",
            trials=1,
            context=context,
        )
        assert "'zero'" in result.title


class TestFaultModelComparison:
    def test_budget_and_flip_accounting(self, context):
        result = run_fault_model_comparison(
            preset=PRESET,
            model_name="lenet",
            methods=("none", "fitact"),
            rate_index=4,
            trials=2,
            context=context,
        )
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
        from repro.eval.experiments import run_mobilenet_panel

        preset = PRESET.with_overrides(
            image_size=32, model_scale=0.125, train_epochs=4, post_epochs=1,
            trials=1, train_samples=200, test_samples=80,
        )
        result = run_mobilenet_panel(
            preset=preset,
            schemes=(("none", "none", None), ("clipact", "clipact", None)),
            trials=1,
        )
        rates = [k for k in result.data if k != "clean"]
        assert len(rates) == len(preset.rates)
        assert set(result.data["clean"]) == {"none", "clipact"}
        for rate in rates:
            assert 0.0 <= result.data[rate]["none"] <= 1.0
        assert "EXT-M" in result.to_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flips_column_is_each_schemes_own(self, isolated_cache, monkeypatch):
        """Each scheme's mean realised flips, in scheme order (the column
        once printed the first scheme's expected flips for every one)."""
        from repro.eval.experiments import extensions, run_mobilenet_panel
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
        result = run_mobilenet_panel(
            preset=preset,
            schemes=(("fitact", "fitact", None), ("none", "none", None)),
            trials=2,
        )
        assert result.headers[:2] == ["fault rate", "mean flips per scheme"]
        fitact, none = realised["ext-m:fitact"], realised["ext-m:none"]
        assert len(fitact) == len(none) == len(result.rows) == len(preset.rates)
        for row, own_fitact, own_none in zip(result.rows, fitact, none):
            assert row[1] == f"{own_fitact:.1f} / {own_none:.1f}"
        # FitAct's bound words enlarge its fault space.
        assert sum(fitact) > sum(none)


class TestLayerVulnerability:
    def test_groups_cover_depth(self, context):
        from repro.eval.experiments import run_layer_vulnerability

        result = run_layer_vulnerability(
            preset=PRESET,
            model_name="lenet",
            methods=("none",),
            flips_per_trial=4,
            max_groups=3,
            trials=2,
            context=context,
        )
        assert 1 <= len(result.data) <= 3
        for row in result.data.values():
            assert 0.0 <= row["none"] <= 1.0
        assert "EXT-L" in result.to_text()


class TestHardDeployAblation:
    def test_variants_and_reference(self, context):
        from repro.eval.experiments import run_hard_deploy_ablation

        result = run_hard_deploy_ablation(
            preset=PRESET,
            model_name="lenet",
            rate_indices=(2,),
            trials=2,
            context=context,
        )
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
    def test_width_scaling_and_quantisation_loss(self, context):
        result = run_format_ablation(
            preset=PRESET,
            model_name="lenet",
            formats=("q7.8", "q15.16"),
            methods=("none",),
            rate_index=3,
            trials=2,
            context=context,
        )
        assert set(result.data) == {"q7.8:none", "q15.16:none"}
        narrow = result.data["q7.8:none"]
        wide = result.data["q15.16:none"]
        # Expected flips scale with word width at a fixed per-bit rate.
        assert wide["expected_flips"] == pytest.approx(
            narrow["expected_flips"] * 2, rel=1e-6
        )
        # 16-bit quantisation of a small trained LeNet stays usable.
        assert narrow["clean"] > 0.4

    def test_custom_format_spec(self, context):
        result = run_format_ablation(
            preset=PRESET,
            model_name="lenet",
            formats=("q5.10",),
            methods=("none",),
            rate_index=0,
            trials=1,
            context=context,
        )
        assert "Q5.10" in result.to_text()
