"""The fault injector: exact restore, filtering, determinism."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import BitFlipFaultModel, FaultInjector, FaultSites
from repro.quant import quantize_module
from repro.quant.fixed_point import decode, flip_bits
from repro.quant.formats import FORMATS


def _model(seed=0):
    model = nn.Sequential(
        nn.Linear(6, 10, rng=seed), nn.ReLU(), nn.Linear(10, 3, rng=seed + 1)
    )
    return quantize_module(model)


def _snapshot(model):
    return {name: param.data.copy() for name, param in model.named_parameters()}


class TestInjector:
    def test_fault_space_size(self):
        model = _model()
        injector = FaultInjector(model)
        assert injector.total_words == model.num_parameters()
        assert injector.total_bits == model.num_parameters() * 32

    def test_inject_changes_parameters(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        sites = injector.sample(BitFlipFaultModel.exact(20), rng=0)
        with injector.inject(sites) as count:
            assert count == 20
            changed = any(
                not np.array_equal(param.data, before[name])
                for name, param in model.named_parameters()
            )
            assert changed

    def test_restore_is_bit_exact(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        sites = injector.sample(BitFlipFaultModel.exact(50), rng=1)
        with injector.inject(sites):
            pass
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_restore_after_exception(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        sites = injector.sample(BitFlipFaultModel.exact(5), rng=2)
        with pytest.raises(RuntimeError, match="boom"):
            with injector.inject(sites):
                raise RuntimeError("boom")
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_zero_flip_trial(self):
        model = _model()
        injector = FaultInjector(model)
        with injector.inject(FaultSites.empty()) as count:
            assert count == 0

    def test_sampling_deterministic_by_seed(self):
        injector = FaultInjector(_model())
        spec = BitFlipFaultModel.exact(10)
        a = injector.sample(spec, rng=9)
        b = injector.sample(spec, rng=9)
        np.testing.assert_array_equal(a.word_positions, b.word_positions)
        np.testing.assert_array_equal(a.bit_positions, b.bit_positions)

    def test_param_filter_restricts_targets(self):
        model = _model()
        injector = FaultInjector(model)
        spec = BitFlipFaultModel.exact(
            200, param_filter=lambda name: name.startswith("0.")
        )
        sites = injector.sample(spec, rng=0)
        before = _snapshot(model)
        with injector.inject(sites):
            # Only layer 0 parameters may differ.
            for name, param in model.named_parameters():
                if not name.startswith("0."):
                    np.testing.assert_array_equal(param.data, before[name])

    def test_param_filter_matching_nothing_raises(self):
        injector = FaultInjector(_model())
        spec = BitFlipFaultModel.exact(1, param_filter=lambda name: False)
        with pytest.raises(ConfigurationError):
            injector.sample(spec, rng=0)

    def test_double_apply_without_restore_raises(self):
        injector = FaultInjector(_model())
        sites = injector.sample(BitFlipFaultModel.exact(1), rng=0)
        injector.apply(sites)
        with pytest.raises(ConfigurationError):
            injector.apply(sites)
        injector.restore()

    def test_refresh_while_active_raises(self):
        injector = FaultInjector(_model())
        injector.apply(injector.sample(BitFlipFaultModel.exact(1), rng=0))
        with pytest.raises(ConfigurationError):
            injector.refresh()
        injector.restore()

    def test_refresh_picks_up_new_values(self):
        model = _model()
        injector = FaultInjector(model)
        first = next(model.parameters())
        first.data = np.zeros_like(first.data)
        injector.refresh()
        with injector.inject(FaultSites.empty()):
            pass
        np.testing.assert_array_equal(first.data, np.zeros_like(first.data))

    def test_describe_site(self):
        injector = FaultInjector(_model())
        text = injector.describe_site(0, 31)
        assert "0.weight" in text and "bit 31" in text

    def test_no_parameters_raises(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(nn.ReLU())

    def test_apply_rejects_out_of_range_word(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        bad = FaultSites(np.array([injector.total_words]), np.array([0]))
        with pytest.raises(ConfigurationError):
            injector.apply(bad)
        # Nothing was corrupted and the injector is immediately reusable.
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert not injector._active
        with injector.inject(injector.sample(BitFlipFaultModel.exact(1), rng=0)):
            pass

    def test_apply_rejects_out_of_range_bit(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        bad = FaultSites(np.array([0]), np.array([32]))
        with pytest.raises(ConfigurationError):
            injector.apply(bad)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert not injector._active

    def test_apply_rejects_negative_positions(self):
        injector = FaultInjector(_model())
        with pytest.raises(ConfigurationError):
            injector.apply(FaultSites(np.array([-1]), np.array([0])))
        with pytest.raises(ConfigurationError):
            injector.apply(FaultSites(np.array([0]), np.array([-1])))
        assert not injector._active

    def test_inject_with_invalid_sites_leaves_injector_clean(self):
        model = _model()
        injector = FaultInjector(model)
        bad = FaultSites(np.array([injector.total_words + 7]), np.array([0]))
        with pytest.raises(ConfigurationError):
            with injector.inject(bad):
                pytest.fail("inject must not enter the context on bad sites")
        assert not injector._active

    def test_mid_apply_failure_restores_everything(self, monkeypatch):
        """A fault mid-apply (after some parameters were already flipped)
        must restore the flipped prefix and deactivate the injector."""
        import repro.fault.injector as injector_module

        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        # Sites spanning the first and last parameter force multiple
        # flip_bits calls; the second one explodes.
        sites = FaultSites(
            np.array([0, injector.total_words - 1]), np.array([30, 30])
        )
        real_flip_bits = injector_module.flip_bits
        calls = {"n": 0}

        def exploding_flip_bits(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-apply fault")
            return real_flip_bits(*args, **kwargs)

        monkeypatch.setattr(injector_module, "flip_bits", exploding_flip_bits)
        with pytest.raises(RuntimeError, match="mid-apply"):
            injector.apply(sites)
        assert calls["n"] == 2
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert not injector._active
        monkeypatch.setattr(injector_module, "flip_bits", real_flip_bits)
        with injector.inject(sites) as count:
            assert count == 2

    def test_single_flip_changes_single_value(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        sites = FaultSites(np.array([0]), np.array([16]))
        with injector.inject(sites):
            after = _snapshot(model)
            total_changed = sum(
                (after[name] != before[name]).sum() for name in before
            )
            assert total_changed == 1


class TestApplyTouchesOnlyFlippedWords:
    """``apply`` flips and decodes only the touched words and patches them
    into a copy of the clean array; the result must equal flipping and
    decoding every word of each touched parameter."""

    @staticmethod
    def _reference(injector, sites):
        """Whole-array ``flip_bits`` + ``decode`` per touched parameter."""
        expected = {}
        owner = np.searchsorted(injector._offsets, sites.word_positions, side="right") - 1
        for index in np.unique(owner):
            mask = owner == index
            local = sites.word_positions[mask] - injector._offsets[index]
            words = flip_bits(injector._words[index], local, sites.bit_positions[mask], injector.fmt)
            param = injector.parameters[index]
            expected[index] = decode(words, injector.fmt).reshape(param.shape)
        return expected

    @pytest.mark.parametrize("spec", sorted(FORMATS))
    def test_apply_equals_whole_array_flip_and_decode(self, spec):
        fmt = FORMATS[spec]
        model = quantize_module(
            nn.Sequential(nn.Linear(6, 10, rng=0), nn.ReLU(), nn.Linear(10, 3, rng=1)), fmt
        )
        injector = FaultInjector(model, fmt)
        last = injector.total_words - 1
        top = fmt.total_bits - 1
        # Several bits in one word (7), a (word, bit) pair given twice
        # (word 20, bit 0: the two flips cancel), the sign bit, and
        # words in both parameters' first and last positions.
        sites = FaultSites(
            np.array([7, 7, 7, 20, 20, 20, 0, 59, 60, last, last]),
            np.array([0, 3, top, 0, 0, 1, top, 1, 2, 0, top]),
        )
        expected = self._reference(injector, sites)
        clean = [param.data for param in injector.parameters]
        with injector.inject(sites):
            for index, param in enumerate(injector.parameters):
                if index in expected:
                    assert param.data.tobytes() == expected[index].tobytes()
                    assert param.data.dtype == np.float32
                    assert param.data.shape == expected[index].shape
                    assert param.data.flags.writeable and param.data is not clean[index]
                else:
                    assert param.data is clean[index]
        # restore rebinds the canonical clean objects.
        for param, canonical in zip(injector.parameters, injector._clean):
            assert param.data is canonical
        assert injector.canonical_clean()

    def test_random_sites_match_the_whole_array_reference(self):
        model = _model()
        injector = FaultInjector(model)
        rng = np.random.default_rng(11)
        for _ in range(20):
            count = int(rng.integers(1, 40))
            sites = FaultSites(
                rng.integers(0, injector.total_words, count),
                rng.integers(0, injector.fmt.total_bits, count),
            )
            expected = self._reference(injector, sites)
            with injector.inject(sites):
                for index, want in expected.items():
                    assert injector.parameters[index].data.tobytes() == want.tobytes()

    def test_cancelling_pair_leaves_clean_values(self):
        model = _model()
        injector = FaultInjector(model)
        before = _snapshot(model)
        sites = FaultSites(np.array([5, 5]), np.array([9, 9]))
        with injector.inject(sites):
            for name, param in model.named_parameters():
                assert param.data.tobytes() == before[name].tobytes()
