"""Replica-batched fault evaluation: share the clean pass, re-run what a fault reached.

A campaign trial flips bits in *parameters* and asks for the faulted
model's accuracy.  Run per-trial, every trial pays a full compiled
forward per batch even though most of that forward is identical to the
clean pass: a fault in layer L cannot change any activation computed
before the first kernel step that reads L's parameters, and past that
step it often changes only some images, or none.

:class:`ReplicaPlan` exploits exactly that.  One clean forward per
batch is executed with *taps* — owned snapshots of the activation
entering every step at which some parameter is first read — and cached.
Each faulted replica ("lane") then walks the plan suffix from its
divergence step, seeded with the cached clean activation, keeping only
the images whose activation still differs from the clean pass
(:class:`Lane`):

- at every tapped step the lane compares its activation with the clean
  snapshot bit for bit and drops the images that match;
- per-image steps (:meth:`Kernel.per_image
  <repro.runtime.kernels.Kernel.per_image>`: K-major convs, pooling,
  flatten, BatchNorm, elementwise activations, residual blocks made of
  those) run on the remaining images only;
- before a step that needs the whole batch — one whose GEMM spans it
  (channels-last conv, Linear) or one reading a faulted parameter —
  the remaining images are scattered into a copy of that step's clean
  snapshot;
- when no image differs, the lane takes the clean logits if no later
  step reads a faulted parameter, and otherwise resumes at the
  snapshot of the next step that does.

For sparse faults the work left is a fraction of the full forward,
which is where the replica-batched campaign speedup comes from; dense
many-layer faults degrade gracefully toward one full forward per lane
(never worse than the per-trial path, up to the comparisons and
snapshot bookkeeping).

Why lanes are *virtual*, not a physical batch dimension
-------------------------------------------------------
Stacking R replicas along the batch axis through one shared-weight GEMM
cannot satisfy the repository's bit-exactness contract, for two
reasons.  First, parameter faults give every lane *different* weights —
there is no shared GEMM operand to batch.  Second, PR 4 measured that
changing a BLAS call's shape changes its K-accumulation order
(shape-selected micro-kernels), so an R-fold batch GEMM is not
float32-bit-identical to R serial GEMMs.  The share-until-diverge
scheme sidesteps both: every GEMM a lane executes has *exactly* the
serial shapes and operands — a whole-batch GEMM always sees the whole
batch, and a per-image step's GEMM has one fixed shape per image, so
running it on fewer images changes no image's bits — and lane results
equal the per-trial path bit for bit on any BLAS backend, by
construction: the never-row-split rule of ``runtime/kernels.py``
extended to replicas (lint rule RPL010, ``docs/INVARIANTS.md``).

Replay safety
-------------
Suffix replay assumes every step is a pure function of its input and
the live module state.  Two step kinds may not be: a
:class:`~repro.runtime.kernels.FallbackKernel` runs arbitrary module
code, and an *armed* :class:`~repro.runtime.kernels.FaultStepKernel`
draws from the layer's random stream (replaying it would desynchronise
RNG consumption with the serial schedule).  :meth:`ReplicaPlan.replay_safe`
reports whether the current plan is free of both; callers
(:meth:`repro.eval.Evaluator.lane_accuracies`) fall back to the
per-trial path otherwise.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.profile import KernelProfiler, PlanProfile
from repro.runtime.kernels import (
    FallbackKernel,
    FaultStepKernel,
    runs_per_image,
    walk_kernels,
)

if TYPE_CHECKING:
    from repro.nn.parameter import Parameter
    from repro.runtime.plan import InferencePlan

__all__ = ["DEFAULT_SNAPSHOT_BUDGET", "Lane", "ReplicaPlan", "fault_parameters"]

#: Byte budget for cached clean-activation snapshots (per ReplicaPlan).
#: Evicted batches only cost a clean re-run / full-forward fallback,
#: never correctness.
DEFAULT_SNAPSHOT_BUDGET = 256 << 20


def fault_parameters(
    injector: Any, sites: Sequence[int]
) -> "tuple[Parameter, ...] | None":
    """The parameters ``sites`` touch, via the injector's metadata hooks.

    Returns ``None`` when the injector lacks the hooks
    (``site_metadata`` + ``parameters``) — callers then cannot bound the
    divergence step and must treat the fault as affecting the whole
    forward.
    """
    metadata = getattr(injector, "site_metadata", None)
    parameters = getattr(injector, "parameters", None)
    if metadata is None or parameters is None:
        return None
    indices = sorted({index for index, _bit in metadata(sites)})
    return tuple(parameters[index] for index in indices)


def _dirty_rows(x: np.ndarray, clean: np.ndarray) -> np.ndarray:
    """Per image, whether ``x`` differs from ``clean`` in any bit."""
    rows = len(x)
    return (
        x.reshape(rows, -1).view(np.uint32) != clean.reshape(rows, -1).view(np.uint32)
    ).any(axis=1)


class Lane:
    """One lane's walk over the plan suffix (see the module docstring).

    :meth:`InferencePlan.forward_from
    <repro.runtime.plan.InferencePlan.forward_from>` calls :meth:`enter`
    before each step and :meth:`finish` after the last; the lane keeps
    ``rows``, the batch positions of the images its activation holds
    (``None``: every image).  ``snapshots`` are the clean activations
    entering the tapped steps, ``logits`` the clean pass's output,
    ``faulted`` the steps reading a faulted parameter and ``per_image``
    each step's :meth:`Kernel.per_image
    <repro.runtime.kernels.Kernel.per_image>` in the clean pass.
    """

    def __init__(
        self,
        start: int,
        faulted: "set[int]",
        per_image: tuple[bool, ...],
        snapshots: dict[int, np.ndarray],
        logits: np.ndarray,
    ) -> None:
        steps = len(per_image)
        self.start = start
        self.snapshots = snapshots
        self.logits = logits
        self.rows: np.ndarray | None = None
        self._end = steps
        self._tapped = sorted(snapshots)
        self._needs_batch = [
            index in faulted or not per_image[index] for index in range(steps)
        ]
        # _narrow[i]: the first step at or after i that needs the whole
        # batch has a clean snapshot to scatter into (after the last
        # one, the clean logits take the rows), so the lane may drop
        # images at i.  _next_faulted[i]: the first faulted step >= i.
        self._narrow = [False] * steps
        self._next_faulted: list[int | None] = [None] * steps
        narrow, faulted_at = True, None
        for index in reversed(range(steps)):
            if self._needs_batch[index]:
                narrow = index in snapshots
            if index in faulted:
                faulted_at = index
            self._narrow[index] = narrow
            self._next_faulted[index] = faulted_at

    def enter(self, index: int, x: np.ndarray) -> tuple[int, np.ndarray]:
        """The step to run next and its input, given the activation
        ``x`` entering step ``index``."""
        clean = self.snapshots.get(index)
        if clean is None or index == self.start:
            return index, x
        rows = self.rows
        dirty = _dirty_rows(x, clean if rows is None else clean[rows])
        if not dirty.any():
            # Every image is back on the clean pass: resume at the last
            # snapshot before the next step reading a faulted parameter.
            self.rows = None
            target = self._next_faulted[index]
            if target is None:
                return self._end, self.logits
            resume = self._tapped[bisect.bisect_right(self._tapped, target) - 1]
            return resume, self.snapshots[resume]
        if self._needs_batch[index]:
            if rows is not None:
                full = clean.copy()
                full[rows] = x
                x, self.rows = full, None
            return index, x
        if self._narrow[index] and not dirty.all():
            self.rows = np.flatnonzero(dirty) if rows is None else rows[dirty]
            x = x[dirty]
        return index, x

    def finish(self, x: np.ndarray) -> np.ndarray:
        """The whole batch's logits from the last step's output."""
        if self.rows is None:
            return x
        logits = self.logits.copy()
        logits[self.rows] = x
        return logits


class ReplicaPlan:
    """Lane-wise fault evaluation over one :class:`InferencePlan`.

    Any number of lanes share one prepared clean pass per batch.  The
    cache is keyed by the clean model's identity signatures, not by a
    lane group, so lanes evaluated one at a time share it exactly as a
    group would.

    Usage, per evaluation batch (model **clean**)::

        clean_logits = replica.prepare(key, inputs)

    then, per lane (model carrying that lane's fault)::

        logits = replica.lane_forward(key, inputs, params)

    where ``params`` are the faulted parameters
    (:func:`fault_parameters`).  ``prepare`` validates the cache against
    the plan's identity signatures, so a new checkpoint, surgery, or a
    genuine weight update flushes stale snapshots automatically; the
    caller's only contract is that between ``prepare`` and
    ``lane_forward`` the sole model mutation is the injector's
    all-or-nothing flip of exactly ``params``.
    """

    def __init__(
        self,
        plan: "InferencePlan",
        snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
    ) -> None:
        self.plan = plan
        self.snapshot_budget = int(snapshot_budget)
        self._lock = threading.RLock()
        #: (structure, state) signatures of the clean model the cache
        #: was built against; None until the first prepare().
        self._generation: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._readers: dict[int, tuple[int, ...]] = {}
        self._taps: tuple[int, ...] = ()
        #: Per-image input shape -> each step's per_image() in the clean
        #: pass at that shape (a conv's layout follows its map size).
        self._per_image: dict[tuple[int, ...], tuple[bool, ...]] = {}
        self._logits: "OrderedDict[Any, np.ndarray]" = OrderedDict()
        self._snapshots: "OrderedDict[Any, dict[int, np.ndarray]]" = OrderedDict()
        self._snapshot_bytes = 0

    # ------------------------------------------------------------------
    # Divergence map
    # ------------------------------------------------------------------
    def _rebuild_map(self) -> None:
        """Map each parameter to every plan step reading it, in order."""
        readers: dict[int, list[int]] = {}
        for index, step in enumerate(self.plan.steps):
            for module in step.source_modules():
                for param in module.parameters():
                    steps = readers.setdefault(id(param), [])
                    if not steps or steps[-1] != index:
                        steps.append(index)
        self._readers = {key: tuple(steps) for key, steps in readers.items()}
        self._taps = tuple(sorted({s[0] for s in readers.values() if s[0] > 0}))
        self._per_image = {}

    def _faulted_steps(
        self, params: "Iterable[Parameter] | None"
    ) -> "set[int] | None":
        """Every step reading one of ``params`` (None: unknown)."""
        if params is None:
            return None
        faulted: set[int] = set()
        for param in params:
            readers = self._readers.get(id(param))
            if readers is None:
                return None
            faulted.update(readers)
        return faulted or None

    def lane_start(self, params: "Iterable[Parameter] | None") -> int:
        """Earliest step a fault in ``params`` can affect (0 = unknown)."""
        faulted = self._faulted_steps(params)
        return 0 if faulted is None else min(faulted)

    def replay_safe(self) -> bool:
        """Whether every current step is pure (suffix replay is exact).

        False when the plan holds a :class:`FallbackKernel` (arbitrary
        module code) or an *armed* :class:`FaultStepKernel` (replaying
        it would double-draw the layer's random stream).
        """
        for step in walk_kernels(self.plan.steps):
            if isinstance(step, FallbackKernel):
                return False
            if isinstance(step, FaultStepKernel):
                layer = step.layer
                if (
                    getattr(layer, "enabled", False)
                    and getattr(layer, "fault_model", None) is not None
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached clean pass (next prepare() rebuilds)."""
        with self._lock:
            self._generation = None
            self._logits.clear()
            self._snapshots.clear()
            self._snapshot_bytes = 0

    def _ensure_generation(self) -> None:
        """Refresh the plan and re-key the cache to the clean model state.

        Caller holds both locks and guarantees the model is clean.
        """
        plan = self.plan
        if plan._dirty or (plan._structure, plan._signature) != plan._signatures():
            plan.refresh()
        signatures = (plan._structure, plan._signature)
        if signatures != self._generation:
            self._logits.clear()
            self._snapshots.clear()
            self._snapshot_bytes = 0
            self._rebuild_map()
            self._generation = signatures

    def _store_snapshots(self, key: Any, snaps: dict[int, np.ndarray]) -> None:
        size = sum(array.nbytes for array in snaps.values())
        if size > self.snapshot_budget:
            # One batch alone busts the budget: its lanes run full
            # forwards instead (correct, just unamortised).
            return
        while self._snapshot_bytes + size > self.snapshot_budget and self._snapshots:
            _key, evicted = self._snapshots.popitem(last=False)
            self._snapshot_bytes -= sum(a.nbytes for a in evicted.values())
        self._snapshots[key] = snaps
        self._snapshot_bytes += size

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def prepare(self, key: Any, inputs: np.ndarray) -> np.ndarray:
        """Clean forward for batch ``key``: cache taps, return logits.

        Must run with the model in its clean state.  Cached per
        (model-state generation, batch key), so across a whole campaign
        each batch's clean pass is paid once, not once per trial.
        """
        with self._lock, self.plan._lock:
            self._ensure_generation()
            cached = self._logits.get(key)
            if cached is not None:
                self._logits.move_to_end(key)
                return cached
            logits, snaps = self.plan.forward_from(inputs, 0, taps=self._taps)
            self._logits[key] = logits
            self._store_snapshots(key, snaps)
            self._per_image.setdefault(
                tuple(inputs.shape[1:]),
                tuple(runs_per_image(step) for step in self.plan.steps),
            )
            return logits

    def lane_forward(
        self,
        key: Any,
        inputs: np.ndarray,
        params: "Iterable[Parameter] | None",
    ) -> np.ndarray:
        """One lane's logits for batch ``key`` under the applied fault.

        Walks the plan suffix from the fault's divergence step, seeded
        with the cached clean activation, over only the images the
        fault reached (:class:`Lane`); without a usable clean pass
        (evicted, unmapped parameter, structure changed) it degrades to
        a full forward — bit-identical either way, since the images and
        steps it skips read no faulted state and match the clean pass.
        """
        with self._lock, self.plan._lock:
            lane = None
            if self._generation is not None:
                structure, _state = self.plan._signatures()
                if structure != self._generation[0]:
                    # Surgery since prepare(): step indices moved.
                    self.invalidate()
                else:
                    lane = self._lane(key, inputs, params)
            if lane is None:
                logits, _ = self.plan.forward_from(inputs)
                return logits
            x = inputs if lane.start == 0 else lane.snapshots[lane.start]
            logits, _ = self.plan.forward_from(x, lane.start, lane=lane)
            return logits

    def _lane(
        self, key: Any, inputs: np.ndarray, params: "Iterable[Parameter] | None"
    ) -> Lane | None:
        """The walk for one lane of batch ``key``, or None when the
        clean pass it needs is not cached."""
        faulted = self._faulted_steps(params)
        snapshots = self._snapshots.get(key)
        logits = self._logits.get(key)
        per_image = self._per_image.get(tuple(inputs.shape[1:]))
        if faulted is None or snapshots is None or logits is None or per_image is None:
            return None
        self._snapshots.move_to_end(key)
        return Lane(min(faulted), faulted, per_image, snapshots, logits)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_lanes(
        self,
        injector: Any,
        site_sets: Sequence[Sequence[int]],
        inputs: np.ndarray | None = None,
    ) -> tuple[PlanProfile, PlanProfile]:
        """(shared, lanes) per-kernel profiles of one replica group.

        The *shared* profile times the clean prepare pass every lane
        amortises; the *lanes* profile accumulates each lane's suffix
        re-execution (one profiler forward per lane), splitting the
        per-lane cost from the shared work ``repro profile --replicas``
        reports.  Purely observational; the snapshot cache is flushed
        on entry and exit so profiling never feeds real evaluations.
        """
        if inputs is None:
            inputs = np.zeros(self.plan.input_shape, dtype=np.float32)
        with self._lock, self.plan._lock:
            previous = self.plan._profiler
            self.invalidate()
            shared_prof = self.plan.attach_profiler(KernelProfiler())
            try:
                self.prepare("profile", inputs)
                lanes_prof = self.plan.attach_profiler(KernelProfiler())
                for sites in site_sets:
                    params = fault_parameters(injector, sites)
                    with injector.inject(sites):
                        self.lane_forward("profile", inputs, params)
            finally:
                self.invalidate()
                if previous is not None:
                    self.plan.attach_profiler(previous)
                else:
                    self.plan.detach_profiler()
        return shared_prof.result(), lanes_prof.result()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"ReplicaPlan({self.plan!r})"
