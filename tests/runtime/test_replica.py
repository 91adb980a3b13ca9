"""ReplicaPlan: share-until-diverge lane evaluation.

The replica path's contract is the same as the plan's — exact float32
equality with the serial forward — plus amortisation mechanics worth
pinning down on their own: the divergence map (faults start lanes at
the first step reading the faulted parameter), the snapshot cache
(budgeted, evicting, degrading to full forwards — never to different
bits), and replay safety (fallback kernels and armed activation faults
disable suffix replay rather than corrupt it).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.fault.sites import FaultSites
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime import ReplicaPlan, compile_model, fault_parameters


def _lenet():
    return quantize_module(
        build_model("lenet", num_classes=10, scale=0.5, image_size=16, seed=0)
    )


def _batch(seed=3, n=4, size=16):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, size, size)).astype(np.float32)


def _sites_in_layer(injector, layer, bit=12):
    """One flip site addressed into ``layer``'s word range."""
    offset = sum(injector.parameter_words[:layer])
    words = injector.parameter_words[layer]
    return FaultSites(
        np.asarray([offset + words // 2], dtype=np.int64),
        np.asarray([bit], dtype=np.int64),
    )


class TestLaneForward:
    def test_faulted_lane_matches_serial_plan_bitwise(self):
        model = _lenet()
        injector = FaultInjector(model)
        x = _batch()
        plan = compile_model(model, x.shape)
        replica = plan.replicate()
        clean = replica.prepare(0, x).copy()

        last = len(injector.parameter_words) - 1
        sites = _sites_in_layer(injector, last)
        params = fault_parameters(injector, sites)
        assert replica.lane_start(params) > 0  # suffix path actually taken
        with injector.inject(sites):
            lane = replica.lane_forward(0, x, params)
            serial = compile_model(model, x.shape)(x)
        np.testing.assert_array_equal(lane, serial)
        assert not np.array_equal(lane, clean)
        # Restore is visible: the cached clean pass is still valid.
        np.testing.assert_array_equal(replica.prepare(0, x), clean)

    def test_every_layer_diverges_bit_exactly(self):
        model = _lenet()
        injector = FaultInjector(model)
        x = _batch(seed=5)
        replica = compile_model(model, x.shape).replicate()
        replica.prepare(0, x)
        for layer in range(len(injector.parameter_words)):
            sites = _sites_in_layer(injector, layer)
            params = fault_parameters(injector, sites)
            with injector.inject(sites):
                lane = replica.lane_forward(0, x, params)
                serial = compile_model(model, x.shape)(x)
            np.testing.assert_array_equal(lane, serial)

    def test_first_layer_fault_starts_at_zero(self):
        model = _lenet()
        injector = FaultInjector(model)
        replica = compile_model(model, (2, 3, 16, 16)).replicate()
        replica.prepare(0, _batch(n=2))
        params = fault_parameters(injector, _sites_in_layer(injector, 0))
        assert replica.lane_start(params) == 0
        assert replica.lane_start(None) == 0

    def test_evicted_snapshot_degrades_to_full_forward(self):
        model = _lenet()
        injector = FaultInjector(model)
        x = _batch(seed=7)
        replica = ReplicaPlan(compile_model(model, x.shape), snapshot_budget=0)
        replica.prepare(0, x)
        sites = _sites_in_layer(injector, len(injector.parameter_words) - 1)
        params = fault_parameters(injector, sites)
        with injector.inject(sites):
            lane = replica.lane_forward(0, x, params)
            serial = compile_model(model, x.shape)(x)
        np.testing.assert_array_equal(lane, serial)

    def test_prepare_caches_per_batch_key(self):
        model = _lenet()
        x = _batch(seed=9)
        replica = compile_model(model, x.shape).replicate()
        first = replica.prepare(0, x)
        assert replica.prepare(0, x) is first  # cache hit, no recompute
        replica.invalidate()
        rebuilt = replica.prepare(0, x)
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt, first)


class TestReplaySafety:
    def test_plain_model_is_replay_safe(self):
        replica = compile_model(_lenet(), (2, 3, 16, 16)).replicate()
        assert replica.replay_safe()

    def test_fallback_kernel_disables_replay(self):
        class Opaque(nn.Module):
            def forward(self, x):
                return x

        model = nn.Sequential(nn.Linear(4, 4, rng=0), Opaque())
        replica = compile_model(model, (2, 4)).replicate()
        assert not replica.replay_safe()

    def test_armed_activation_fault_disables_replay(self):
        from repro.fault import ActivationFaultInjector, ActivationFaultModel

        model = nn.Sequential(nn.Linear(4, 4, rng=0), nn.ReLU(), nn.Linear(4, 2, rng=1))
        injector = ActivationFaultInjector(model)
        replica = compile_model(model, (2, 4)).replicate()
        assert replica.replay_safe()
        with injector.active(ActivationFaultModel.at_rate(1e-3), seed=0):
            assert not replica.replay_safe()
        assert replica.replay_safe()


class TestGuards:
    def test_replica_plan_refuses_pickling(self):
        replica = compile_model(_lenet(), (2, 3, 16, 16)).replicate()
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(replica)

    def test_fault_parameters_without_hooks_is_none(self):
        assert fault_parameters(object(), np.asarray([1])) is None

    def test_fault_parameters_maps_sites_to_parameters(self):
        model = _lenet()
        injector = FaultInjector(model)
        sites = injector.sample(BitFlipFaultModel.exact(3), rng=0)
        params = fault_parameters(injector, sites)
        assert params is not None and 1 <= len(params) <= 3
        live = {id(p) for p in model.parameters()}
        assert all(id(p) in live for p in params)


class TestSurgeryInvalidation:
    def test_structure_change_between_prepare_and_lane(self):
        """Surgery after prepare(): lane_forward must not replay stale taps."""
        model = nn.Sequential(
            nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1)
        )
        model = quantize_module(model)
        injector = FaultInjector(model)
        x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        plan = compile_model(model, x.shape)
        replica = plan.replicate()
        replica.prepare(0, x)
        model.set_submodule("1", nn.Identity())  # surgery: step indices shift
        sites = _sites_in_layer(injector, len(injector.parameter_words) - 1)
        params = fault_parameters(injector, sites)
        with injector.inject(sites):
            lane = replica.lane_forward(0, x, params)
            serial = compile_model(model, x.shape)(x)
        np.testing.assert_array_equal(lane, serial)
