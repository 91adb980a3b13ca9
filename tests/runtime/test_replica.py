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
from repro.core.fitrelu import FitReLU
from repro.eval.evaluator import forward_logits
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.fault.sites import FaultSites
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime import ReplicaPlan, compile_model, fault_parameters
from repro.runtime.replica import Lane


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


def _word_site(injector, param, flat_index, bit):
    """One flip site at ``param.data.flat[flat_index]``."""
    index = next(i for i, p in enumerate(injector.parameters) if p is param)
    offset = sum(injector.parameter_words[:index])
    return FaultSites(
        np.asarray([offset + flat_index], dtype=np.int64),
        np.asarray([bit], dtype=np.int64),
    )


@pytest.fixture
def walks(monkeypatch):
    """Each lane's walk as ``(index in, index out, images held)`` per
    step boundary, one list per lane."""
    recorded: list[list[tuple[int, int, int]]] = []
    enter = Lane.enter
    init = Lane.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorded.append([])

    def recording_enter(self, index, x):
        moved, y = enter(self, index, x)
        recorded[-1].append((index, moved, len(y)))
        return moved, y

    monkeypatch.setattr(Lane, "__init__", recording_init)
    monkeypatch.setattr(Lane, "enter", recording_enter)
    return recorded


def _fitrelu_net(dead_channel=None):
    """K-major conv + neuron-wise FitReLU, a second K-major conv, pool,
    flatten and two Linear layers; ``dead_channel`` gets a bias of -64,
    so its pre-activations are negative for every image."""
    conv = nn.Conv2d(3, 4, 3, padding=1, rng=0)
    if dead_channel is not None:
        bias = conv.bias.data.copy()
        bias[dead_channel] = -64.0
        conv.bias.data = bias
    bounds = np.random.default_rng(1).uniform(0.2, 1.0, (4, 16, 16)).astype(np.float32)
    model = nn.Sequential(
        conv,
        FitReLU(bounds),
        nn.Conv2d(4, 4, 3, padding=1, rng=2),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 8 * 8, 16, rng=3),
        nn.ReLU(),
        nn.Linear(16, 10, rng=4),
    )
    return quantize_module(model)


def _lane_vs_full(model, sites, x, key=0):
    """(lane logits, inject + full forward logits, clean logits)."""
    injector = FaultInjector(model)
    replica = compile_model(model, x.shape).replicate()
    clean = replica.prepare(key, x).copy()
    params = fault_parameters(injector, sites)
    with injector.inject(sites):
        lane = replica.lane_forward(key, x, params)
        full = forward_logits(model, x)
    return lane, full, clean


class TestDirtyImages:
    """Lanes re-run only the images a fault reached, bit-exactly."""

    def test_bound_flip_reaching_some_images_narrows_the_batch(self, walks):
        model = _fitrelu_net()
        injector = FaultInjector(model)
        bound = model[1].bound
        x = _batch(seed=11, n=8)
        # Lower one neuron's bound from ~0.2-1.0 to almost nothing: only
        # images with a positive pre-activation there change.
        sites = _word_site(injector, bound, 2 * 256 + 7 * 16 + 7, 15)
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes()
        assert lane.tobytes() != clean.tobytes()
        (walk,) = walks
        held = [images for _index, _moved, images in walk]
        assert any(0 < images < 8 for images in held), walk

    def test_images_leave_the_lane_at_successive_boundaries(self, walks):
        """8 images, 6 reached by the flip, 2 of them still different one
        conv later: the walk holds 8, then 6, then 2 images, and scatters
        them back before the Linear layer."""
        identity = nn.Conv2d(3, 3, 1, rng=0)
        identity.weight.data = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        identity.bias.data = np.zeros(3, dtype=np.float32)
        mix = nn.Conv2d(3, 1, 1, rng=1)  # in0 - 10 * in1: large in1 masks in0
        mix.weight.data = np.asarray([1.0, -10.0, 0.0], dtype=np.float32).reshape(1, 3, 1, 1)
        mix.bias.data = np.zeros(1, dtype=np.float32)
        bounds = np.full((3, 16, 16), 8.0, dtype=np.float32)
        bounds[0, 5, 5] = 1.0
        model = quantize_module(
            nn.Sequential(
                identity, FitReLU(bounds),
                mix, nn.ReLU(),
                nn.Conv2d(1, 2, 3, padding=1, rng=2), nn.ReLU(),
                nn.MaxPool2d(2), nn.Flatten(), nn.Linear(2 * 8 * 8, 10, rng=3),
            )
        )
        x = _batch(seed=18, n=8)
        x[:, 0, 5, 5] = [1, 1, 1, 1, 1, 1, -1, -1]  # the flip reaches 0-5
        x[:, 1, 5, 5] = [5, 5, 5, 5, -1, -1, 5, 5]  # mix masks it in 0-3
        injector = FaultInjector(model)
        # Bound of neuron (0, 5, 5): 1.0 -> 0.0 (bit 16 of Q15.16).
        sites = _word_site(injector, model[1].bound, 5 * 16 + 5, 16)
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes() != clean.tobytes()
        (walk,) = walks
        assert [images for _index, _moved, images in walk] == [8, 6, 2, 2, 2, 8], walk

    def test_no_narrowing_before_an_untapped_whole_batch_step(self, walks):
        """A batch-axis softmax reads every image and has no clean
        snapshot to scatter into, so the lane keeps the whole batch up
        to it even where only some images differ."""
        bounds = np.random.default_rng(1).uniform(0.2, 1.0, (4, 16, 16)).astype(np.float32)
        model = quantize_module(
            nn.Sequential(
                nn.Conv2d(3, 4, 3, padding=1, rng=0), FitReLU(bounds),
                nn.Conv2d(4, 4, 3, padding=1, rng=2), nn.ReLU(),
                nn.Softmax(axis=0), nn.Flatten(), nn.Linear(4 * 16 * 16, 10, rng=3),
            )
        )
        injector = FaultInjector(model)
        x = _batch(seed=11, n=8)
        sites = _word_site(injector, model[1].bound, 2 * 256 + 7 * 16 + 7, 15)
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes() != clean.tobytes()
        (walk,) = walks
        assert all(images == 8 for _index, _moved, images in walk), walk

    def test_lane_converging_to_the_clean_pass_returns_clean_logits(self, walks):
        model = _fitrelu_net(dead_channel=1)
        injector = FaultInjector(model)
        x = _batch(seed=12, n=8)
        sites = _word_site(injector, model[1].bound, 1 * 256 + 40, 17)
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes() == clean.tobytes()
        (walk,) = walks
        # The comparison at the second conv finds no image changed and
        # the walk ends there: no later step reads the faulted bound.
        steps = len(compile_model(model, x.shape).steps)
        assert walk[-1][1] == steps, walk

    def test_flips_in_two_layers_jump_to_the_second(self, walks):
        model = _fitrelu_net(dead_channel=1)
        injector = FaultInjector(model)
        x = _batch(seed=13, n=8)
        head = model[8].weight
        sites = FaultSites(
            np.concatenate([
                _word_site(injector, model[1].bound, 1 * 256 + 40, 17).word_positions,
                _word_site(injector, head, 3, 20).word_positions,
            ]),
            np.asarray([17, 20], dtype=np.int64),
        )
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes()
        assert lane.tobytes() != clean.tobytes()
        (walk,) = walks
        # All images are clean again entering the second conv (step 1):
        # the walk resumes at the last Linear, the next faulted step.
        last = len(compile_model(model, x.shape).steps) - 1
        jumps = [(index, moved) for index, moved, _images in walk if moved != index]
        assert jumps == [(1, last)], walk

    def test_fault_in_step_zero(self, walks):
        model = _fitrelu_net()
        injector = FaultInjector(model)
        x = _batch(seed=14, n=8)
        sites = _word_site(injector, model[0].weight, 5, 14)
        lane, full, clean = _lane_vs_full(model, sites, x)
        assert lane.tobytes() == full.tobytes() != clean.tobytes()
        (walk,) = walks
        assert walk[0][0] == 0

    def test_parameter_read_by_two_steps(self, walks):
        """A weight shared by steps 0 and 2: its flip is invisible after
        step 0 (the input column it multiplies is zero) and changes the
        output at step 2, so the lane must resume there, not take the
        clean logits."""
        shared = nn.Linear(6, 6, rng=0)
        model = quantize_module(
            nn.Sequential(
                shared, nn.ReLU(),
                nn.Linear(6, 6, rng=1), nn.ReLU(),
                shared, nn.BatchNorm1d(6), nn.ReLU(),
                nn.Linear(6, 3, rng=2),
            )
        )
        x = np.random.default_rng(15).standard_normal((5, 6)).astype(np.float32)
        x[:, 2] = 0.0
        injector = FaultInjector(model)
        replica = compile_model(model, x.shape).replicate()
        replica.prepare(0, x)
        assert replica._readers[id(shared.weight)] == (0, 2)
        sites = _word_site(injector, shared.weight, 1 * 6 + 2, 18)
        params = fault_parameters(injector, sites)
        clean = replica.prepare(0, x).copy()
        with injector.inject(sites):
            lane = replica.lane_forward(0, x, params)
            full = forward_logits(model, x)
        assert lane.tobytes() == full.tobytes() != clean.tobytes()
        (walk,) = walks
        assert (1, 2, 5) in walk, walk  # all clean at 1: resume at step 2

    def test_sampled_flips_across_every_parameter(self, walks):
        """Single flips in every parameter of VGG11: partial, converged
        and whole-batch lanes all equal the full forward."""
        model = quantize_module(
            build_model("vgg11", num_classes=10, scale=0.125, image_size=32, seed=0)
        )
        x = _batch(seed=16, n=8, size=32)
        injector = FaultInjector(model)
        replica = compile_model(model, x.shape).replicate()
        replica.prepare(0, x)
        rng = np.random.default_rng(17)
        for index, words in enumerate(injector.parameter_words):
            offset = sum(injector.parameter_words[:index])
            for _ in range(2):
                site = FaultSites(
                    np.asarray([offset + rng.integers(words)]),
                    np.asarray([rng.integers(32)]),
                )
                params = fault_parameters(injector, site)
                with injector.inject(site):
                    lane = replica.lane_forward(0, x, params)
                    full = forward_logits(model, x)
                assert lane.tobytes() == full.tobytes(), (index, site)
        steps = len(replica.plan.steps)
        partial = [w for w in walks if any(0 < images < 8 for _i, _m, images in w)]
        converged = [w for w in walks if w and w[-1][1] == steps]
        whole = [w for w in walks if all(images == 8 for _i, _m, images in w)]
        assert partial and converged and whole


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
        # Process-local (lock, plan, id()-keyed caches): Python's own
        # refusal of the lock makes a stray pickle fail loudly.
        with pytest.raises(TypeError, match="pickle"):
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
