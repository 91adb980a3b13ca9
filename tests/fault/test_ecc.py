"""SEC-DED ECC memory model: code geometry, decode semantics, composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import (
    BitFlipFaultModel,
    ECCProtectedInjector,
    FaultCampaign,
    FaultInjector,
    FaultSites,
    SECDEDCode,
    StuckAtFaultModel,
    ecc_memory_bytes,
)
from repro.quant import quantize_module


def _model(seed=0):
    model = nn.Sequential(
        nn.Linear(8, 16, rng=seed), nn.ReLU(), nn.Linear(16, 4, rng=seed + 1)
    )
    return quantize_module(model)


def _ecc(model=None, **kwargs):
    model = model or _model()
    return ECCProtectedInjector(FaultInjector(model), **kwargs), model


class TestSECDEDCode:
    def test_hamming_39_32(self):
        code = SECDEDCode(32)
        assert code.parity_bits == 7
        assert code.total_bits == 39
        assert code.storage_overhead == pytest.approx(7 / 32)

    def test_hamming_22_16(self):
        code = SECDEDCode(16)
        assert code.parity_bits == 6
        assert code.total_bits == 22

    def test_hamming_13_8(self):
        code = SECDEDCode(8)
        assert code.parity_bits == 5
        assert code.total_bits == 13

    def test_single_data_bit(self):
        # r=2: 2^2 >= 1+2+1; +1 overall parity → 3 check bits.
        assert SECDEDCode(1).parity_bits == 3

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            SECDEDCode(0)

    def test_str(self):
        assert str(SECDEDCode(32)) == "SEC-DED(39,32)"

    @given(data_bits=st.integers(min_value=1, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_hamming_bound_holds(self, data_bits):
        code = SECDEDCode(data_bits)
        r = code.parity_bits - 1
        assert (1 << r) >= data_bits + r + 1
        # Minimality: one fewer check bit would violate the bound.
        if r > 1:
            assert (1 << (r - 1)) < data_bits + (r - 1) + 1


class TestMemoryAccounting:
    def test_ecc_memory_exceeds_plain(self):
        model = _model()
        plain_words = model.num_parameters()
        assert ecc_memory_bytes(model) == int(round(plain_words * 39 / 8))


class TestDecodeSemantics:
    def test_single_flips_all_corrected(self):
        injector, _ = _ecc()
        # Distinct words guarantee k=1 per word.
        n = injector.total_words
        raw = FaultSites(
            np.arange(0, min(n, 20), dtype=np.int64),
            np.full(min(n, 20), 5, dtype=np.int64),
        )
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert len(effective) == 0
        assert outcome.corrected_words == min(n, 20)
        assert outcome.detected_words == 0
        assert outcome.escaped_words == 0

    def test_double_flip_pass_policy_keeps_data_bits(self):
        injector, _ = _ecc(double_policy="pass")
        raw = FaultSites(np.array([3, 3]), np.array([4, 35]))  # 1 data + 1 parity
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert outcome.detected_words == 1
        assert len(effective) == 1  # only the data-bit flip lands
        assert effective.bit_positions[0] == 4

    def test_double_flip_zero_policy_blanks_word(self):
        model = nn.Linear(2, 2, bias=False, rng=0)
        model.weight.data = np.array([[1.0, 0.5], [0.25, -0.75]], dtype=np.float32)
        quantize_module(model)
        injector = ECCProtectedInjector(FaultInjector(model), double_policy="zero")
        raw = FaultSites(np.array([0, 0]), np.array([2, 3]))
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert outcome.zeroed_words == 1
        with injector.inject(effective):
            assert model.weight.data.reshape(-1)[0] == 0.0
        assert model.weight.data.reshape(-1)[0] == 1.0  # restored

    def test_triple_flip_escapes_with_miscorrection(self):
        injector, _ = _ecc(miscorrect=True)
        raw = FaultSites(np.array([7, 7, 7]), np.array([1, 2, 3]))
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert outcome.escaped_words == 1
        assert outcome.miscorrections == 1
        # Data flips pass; the bogus correction may add/remove one more.
        assert 2 <= len(effective) <= 4

    def test_triple_flip_no_miscorrection(self):
        injector, _ = _ecc(miscorrect=False)
        raw = FaultSites(np.array([7, 7, 7]), np.array([1, 2, 3]))
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert outcome.miscorrections == 0
        assert len(effective) == 3

    def test_parity_only_hits_never_corrupt(self):
        injector, _ = _ecc(double_policy="pass")
        raw = FaultSites(np.array([1, 1, 2]), np.array([33, 38, 36]))
        effective, outcome = injector._decode(raw, np.random.default_rng(0))
        assert len(effective) == 0
        assert outcome.detected_words == 1  # word 1 had a double hit
        assert outcome.corrected_words == 1  # word 2 had a single hit


class TestInjectorSurface:
    def test_total_bits_includes_parity(self):
        injector, model = _ecc()
        assert injector.total_bits == model.num_parameters() * 39

    def test_campaign_compatible(self, trained_model, first_test_batch):
        from repro.core.training import evaluate_accuracy

        quantize_module(trained_model)
        ecc = ECCProtectedInjector(FaultInjector(trained_model))
        campaign = FaultCampaign(
            ecc,
            lambda: evaluate_accuracy(trained_model, first_test_batch),
            trials=2,
            seed=0,
        )
        result = campaign.run(BitFlipFaultModel.at_rate(1e-5))
        assert result.trials == 2

    def test_ecc_suppresses_sparse_faults(self):
        """At rates where faults land in distinct words, ECC corrects
        everything: the effective site list is empty."""
        injector, _ = _ecc()
        # ~10 raw flips over ~8.5k codeword bits: doubles are unlikely
        # but possible; check over several seeds that most trials yield
        # zero effective flips and none exceeds the raw count.
        empty = 0
        for seed in range(20):
            sites = injector.sample(BitFlipFaultModel.exact(10), rng=seed)
            assert len(sites) <= 10 + injector.last_outcome.miscorrections
            empty += len(sites) == 0
        assert empty >= 15

    def test_dense_faults_overwhelm_ecc(self):
        """When many words carry multi-bit hits, faults get through."""
        injector, _ = _ecc()
        sites = injector.sample(BitFlipFaultModel.at_rate(0.05), rng=0)
        assert len(sites) > 0
        assert injector.lifetime_outcome.escaped_words > 0

    def test_rejects_non_bitflip_models(self):
        injector, _ = _ecc()
        with pytest.raises(ConfigurationError):
            injector.sample(StuckAtFaultModel.exact(1, 4), rng=0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            _ecc(double_policy="retry")

    def test_rejects_mismatched_code_width(self):
        with pytest.raises(ConfigurationError):
            _ecc(code=SECDEDCode(16))

    def test_param_filter_respected(self):
        injector, _ = _ecc()
        fault_model = BitFlipFaultModel.at_rate(
            0.02, param_filter=lambda name: name.startswith("0.")
        )
        sites = injector.sample(fault_model, rng=0)
        limit = injector.injector.count_words(lambda n: n.startswith("0."))
        if len(sites):
            assert sites.word_positions.max() < limit

    def test_effective_sites_are_data_bits(self):
        injector, _ = _ecc()
        for seed in range(5):
            sites = injector.sample(BitFlipFaultModel.at_rate(0.02), rng=seed)
            if len(sites):
                assert sites.bit_positions.max() < 32

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_outcome_words_partition_hit_words(self, seed):
        injector, _ = _ecc()
        injector.sample(BitFlipFaultModel.at_rate(0.01), rng=seed)
        outcome = injector.last_outcome
        # Every raw-hit word is counted exactly once across the buckets.
        assert outcome.corrected_words >= 0
        total_classified = (
            outcome.corrected_words + outcome.detected_words + outcome.escaped_words
        )
        assert total_classified <= outcome.raw_flips
        if outcome.raw_flips:
            assert total_classified > 0
