"""Stuck-at fault model: lowering to flips, masking, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BitFlipFaultModel,
    FaultCampaign,
    FaultInjector,
    FaultSites,
    StuckAtFaultModel,
    active_stuck_sites,
)
from repro.quant import quantize_module


def _model(seed=0):
    model = nn.Sequential(
        nn.Linear(6, 12, rng=seed), nn.ReLU(), nn.Linear(12, 4, rng=seed + 1)
    )
    return quantize_module(model)


class TestReadBits:
    def test_known_word(self):
        """A parameter equal to 1.0 stores Q15.16 word 0x00010000."""
        model = nn.Linear(1, 1, bias=False, rng=0)
        model.weight.data = np.array([[1.0]], dtype=np.float32)
        quantize_module(model)
        injector = FaultInjector(model)
        sites = FaultSites(
            np.zeros(32, dtype=np.int64), np.arange(32, dtype=np.int64)
        )
        bits = injector.read_bits(sites)
        expected = np.zeros(32, dtype=np.int64)
        expected[16] = 1
        np.testing.assert_array_equal(bits, expected)

    def test_negative_word_sign_bit(self):
        model = nn.Linear(1, 1, bias=False, rng=0)
        model.weight.data = np.array([[-1.0]], dtype=np.float32)
        quantize_module(model)
        injector = FaultInjector(model)
        sign = injector.read_bits(
            FaultSites(np.array([0]), np.array([31]))
        )
        assert sign[0] == 1

    def test_empty_sites(self):
        injector = FaultInjector(_model())
        assert injector.read_bits(FaultSites.empty()).size == 0

    def test_out_of_range_rejected(self):
        injector = FaultInjector(_model())
        bad = FaultSites(np.array([injector.total_words]), np.array([0]))
        with pytest.raises(ConfigurationError):
            injector.read_bits(bad)

    def test_reads_clean_snapshot_under_injection(self):
        """read_bits reports pre-fault memory even while faults are live."""
        model = _model()
        injector = FaultInjector(model)
        probe = injector.sample(BitFlipFaultModel.exact(64), rng=3)
        before = injector.read_bits(probe)
        with injector.inject(probe):
            during = injector.read_bits(probe)
        np.testing.assert_array_equal(before, during)


class TestActiveStuckSites:
    def test_only_differing_cells_survive(self):
        model = _model()
        injector = FaultInjector(model)
        cells = injector.sample(BitFlipFaultModel.exact(200), rng=0)
        stored = injector.read_bits(cells)
        active0 = active_stuck_sites(injector, cells, 0)
        active1 = active_stuck_sites(injector, cells, 1)
        assert len(active0) == int(np.sum(stored == 1))
        assert len(active1) == int(np.sum(stored == 0))
        # Partition: every candidate is active for exactly one polarity.
        assert len(active0) + len(active1) == len(cells)

    def test_bad_stuck_value(self):
        injector = FaultInjector(_model())
        with pytest.raises(ConfigurationError):
            active_stuck_sites(injector, FaultSites.empty(), 2)

    def test_flipping_active_sites_realises_stuck_read(self):
        """After injecting the active sites, each cell reads stuck_value.

        Restricted to low bit positions so the faulted values stay exactly
        representable in the model's float32 parameters (a flipped high
        integer bit produces values whose low Q15.16 bits exceed float32
        precision — an injector-internal concern, not a memory one).
        """
        model = _model()
        injector = FaultInjector(model)
        low_bits = tuple(range(20))
        cells = injector.sample(
            BitFlipFaultModel.exact(100, allowed_bits=low_bits), rng=1
        )
        active = active_stuck_sites(injector, cells, 1)
        with injector.inject(active):
            # Re-snapshot through a fresh injector view of the faulty model.
            faulty_view = FaultInjector(model)
            read = faulty_view.read_bits(cells)
        assert np.all(read == 1)


class TestStuckAtFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StuckAtFaultModel(stuck_value=2, n_cells=4)
        with pytest.raises(ConfigurationError):
            StuckAtFaultModel(stuck_value=0)  # neither rate nor count
        with pytest.raises(ConfigurationError):
            StuckAtFaultModel(stuck_value=0, fault_rate=0.1, n_cells=4)

    def test_sample_via_injector_dispatch(self):
        model = _model()
        injector = FaultInjector(model)
        fault_model = StuckAtFaultModel.exact(1, 64)
        sites = injector.sample(fault_model, rng=0)
        assert len(sites) <= 64
        stored = injector.read_bits(sites)
        assert np.all(stored == 0)  # only 0-cells become stuck-at-1 flips

    def test_deterministic_by_seed(self):
        injector = FaultInjector(_model())
        fault_model = StuckAtFaultModel.at_rate(1, 1e-3)
        a = injector.sample(fault_model, rng=42)
        b = injector.sample(fault_model, rng=42)
        np.testing.assert_array_equal(a.word_positions, b.word_positions)
        np.testing.assert_array_equal(a.bit_positions, b.bit_positions)

    def test_masking_rates_are_complementary(self):
        """The same probe cells mask stuck-at-0 iff they store 0, so the
        two polarities' masking rates sum to exactly 1."""
        injector = FaultInjector(_model())
        masked0 = StuckAtFaultModel.at_rate(0, 1e-3).masking_rate(injector, rng=0)
        masked1 = StuckAtFaultModel.at_rate(1, 1e-3).masking_rate(injector, rng=0)
        assert masked0 + masked1 == pytest.approx(1.0)
        # Signed two's-complement weights are a mix of 0- and 1-bits;
        # neither polarity should be fully masked or fully active.
        assert 0.1 < masked0 < 0.9

    def test_high_bits_of_positive_words_mask_stuck_at_zero(self):
        """Conditioned on positive stored words, high integer bits are 0,
        so stuck-at-0 there is (almost) always masked."""
        model = nn.Linear(4, 4, bias=False, rng=0)
        model.weight.data = np.abs(model.weight.data) + 0.01
        quantize_module(model)
        injector = FaultInjector(model)
        high_bits = tuple(range(20, 31))
        masked0 = StuckAtFaultModel(
            stuck_value=0, fault_rate=0.5, allowed_bits=high_bits
        ).masking_rate(injector, rng=0)
        assert masked0 == pytest.approx(1.0)

    def test_campaign_accepts_stuck_model(self, trained_model, first_test_batch):
        from repro.core.training import evaluate_accuracy

        quantize_module(trained_model)
        injector = FaultInjector(trained_model)
        campaign = FaultCampaign(
            injector,
            lambda: evaluate_accuracy(trained_model, first_test_batch),
            trials=2,
            seed=0,
        )
        result = campaign.run(StuckAtFaultModel.exact(1, 8))
        assert result.trials == 2
        assert np.all(result.flip_counts <= 8)

    def test_describe_mentions_polarity(self):
        assert "stuck-at-1" in StuckAtFaultModel.exact(1, 4).describe()
        assert "rate" in StuckAtFaultModel.at_rate(0, 1e-4).describe()

    @given(
        stuck=st.integers(min_value=0, max_value=1),
        n_cells=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_active_site_count_never_exceeds_candidates(self, stuck, n_cells, seed):
        injector = FaultInjector(_model())
        sites = injector.sample(StuckAtFaultModel.exact(stuck, n_cells), rng=seed)
        assert 0 <= len(sites) <= n_cells
        # All surviving sites currently store the opposite bit.
        if len(sites):
            assert np.all(injector.read_bits(sites) != stuck)
