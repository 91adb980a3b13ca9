"""The compiled inference plan: a linear kernel program over a model.

``compile_model(model, input_shape)`` flattens the module tree into an
:class:`InferencePlan` — a list of pure-numpy kernels with reused
intermediate buffers and zero autograd objects on the hot path.  The
plan is the only inference path: fault-campaign trials and clean
accuracy (:class:`repro.eval.Evaluator`) and the serving stack (one
plan per resident checkpoint) always compile.

Fault-visibility contract
-------------------------
Kernels read parameter arrays by live view — ``param.data`` is fetched
at call time, never copied at compile time — so a bit flipped in
``model.parameters()`` by :class:`repro.fault.FaultInjector` or the
serving chaos engine is visible in the very next plan forward.  The only
cached derived state is eval-mode BatchNorm folding; it is recomputed by
:meth:`InferencePlan.refresh`, which runs automatically when

- a mutation path signals :func:`repro.nn.invalidate_runtime_plans`
  (``FaultInjector.apply``/``restore``, ``Module.load_state_dict``,
  ``quantize_module`` all do), or
- the plan's per-call staleness probe sees that any parameter or buffer
  array object was replaced since the last refresh (the injector and
  checkpoint loaders assign fresh arrays, so this catches them even
  without the explicit signal).

Code that mutates parameter values strictly *in place* (writing through
an existing ``param.data`` array) must call ``plan.refresh()`` — or the
module-level ``invalidate`` helper — itself; no stock mutation path in
this codebase does that.

Concurrency: a plan serialises its forwards behind an internal lock
(buffers are shared state) and returns a fresh output array per call,
so serve-lane worker threads can share one plan safely.  That lock is
also what lets every kernel of the plan share one
:class:`~repro.runtime.kernels.ScratchArena`: steps never overlap.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError
from repro.nn.module import Module, register_runtime_plan, warmup_mode
from repro.obs.profile import KernelProfiler, PlanProfile
from repro.obs.trace import span
from repro.runtime.compiler import compile_module
from repro.runtime.kernels import Kernel, ScratchArena, walk_kernels

if TYPE_CHECKING:
    from repro.runtime.replica import Lane, ReplicaPlan

__all__ = [
    "InferencePlan",
    "compile_model",
]


class InferencePlan:
    """Executable kernel program compiled from one model.

    Call the plan with a float32 input batch to get the logits array
    (always a fresh copy — safe to keep across later forwards).  Any
    batch size works; each kernel's output buffers are allocated per
    batch size on first use and reused afterwards, and all kernels draw
    their scratch from the plan's one grow-only ``scratch`` arena.
    """

    def __init__(
        self,
        model: Module,
        steps: list[Kernel],
        input_shape: tuple[int, ...],
    ) -> None:
        self.model = model
        self.steps = steps
        self.input_shape = tuple(int(dim) for dim in input_shape)
        self._lock = threading.RLock()
        self._dirty = True
        self._signature: tuple[int, ...] = ()
        self._structure: tuple[int, ...] = self._structure_signature()
        self._profiler: KernelProfiler | None = None
        self.scratch = ScratchArena()
        self._wire_kernels()
        register_runtime_plan(model, self)

    # ------------------------------------------------------------------
    # Folded-constant lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Mark folded constants stale; the next forward refreshes them."""
        self._dirty = True

    def refresh(self) -> None:
        """Recompute folded/fused constants from the live module state.

        If the module *tree* changed since compilation — surgery such as
        activation-fault instrumentation replacing submodules — the
        kernel program is recompiled from the live structure first, so
        plans track instrumentation and its removal automatically.
        """
        with self._lock:
            structure, state = self._signatures()
            if structure != self._structure:
                steps = compile_module(self.model)
                if not steps:
                    raise ConfigurationError(
                        f"{type(self.model).__name__} recompiled to an "
                        "empty plan after a structure change"
                    )
                self.steps = steps
                self._structure = structure
                self._wire_kernels()
                if self._profiler is not None:
                    # Fresh kernels: re-register them (accumulation
                    # restarts — rows for retired kernels would lie).
                    self.attach_profiler(self._profiler)
            for step in self.steps:
                step.refresh()
            self._signature = state
            self._dirty = False

    def _structure_signature(self) -> tuple[int, ...]:
        """Identity fingerprint of the module tree (surgery detection)."""
        return self._signatures()[0]

    def _signatures(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(module-tree, parameter/buffer) identity fingerprints.

        One tree walk yields both probes the per-call staleness check
        needs: the module identities detect surgery (e.g. fault-site
        instrumentation replacing submodules — the plan recompiles its
        kernels), the array identities detect replaced values.
        Mutation paths in this codebase *replace* ``param.data`` (the
        injector decodes into a fresh array, ``load_state_dict`` copies,
        ``quantize_module`` reassigns), so an identity change is a
        reliable staleness probe.  It backs up — not replaces — the
        explicit invalidation hooks: identity can theoretically recycle
        after garbage collection, which is why the hooks exist.
        """
        structure = []
        state = []
        for _, module in self.model.named_modules():
            structure.append(id(module))
            for param in module._parameters.values():
                if param is not None:  # bias=False registers a None slot
                    state.append(id(param.data))
            for buffer in module._buffers.values():
                state.append(id(buffer))
        return tuple(structure), tuple(state)

    def _wire_kernels(self) -> None:
        """Give every kernel, nested ones included, the plan's scratch
        arena (again after each recompile)."""
        for step in walk_kernels(self.steps):
            bufs = getattr(step, "bufs", None)
            if bufs is not None:
                bufs.scratch = self.scratch

    def memory(self) -> dict[str, dict[str, int]]:
        """Bytes the plan's buffers hold, by lifetime and name.

        ``scratch`` is the shared arena, per scratch name; ``kernels``
        sums the kernels' own ``out`` and ``padded`` arrays.
        """
        kernels: dict[str, int] = {}
        with self._lock:
            for step in walk_kernels(self.steps):
                bufs = getattr(step, "bufs", None)
                if bufs is not None:
                    for name, nbytes in bufs.sizes().items():
                        kernels[name] = kernels.get(name, 0) + nbytes
            return {"scratch": self.scratch.sizes(), "kernels": kernels}

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(
        self, profiler: KernelProfiler | None = None
    ) -> KernelProfiler:
        """Attach a per-kernel profiler; every later forward accumulates.

        Registers the kernel tree (including the kernels nested inside
        residual blocks) and sets each kernel's ``prof`` hook.
        Attaching resets the profiler's accumulation; detach with
        :meth:`detach_profiler`.  Purely observational — profiled and
        unprofiled forwards are bit-identical.
        """
        with self._lock:
            resolved = profiler if profiler is not None else KernelProfiler()
            resolved.attach(list(self.steps))
            self._set_kernel_profiler(resolved)
            self._profiler = resolved
            return resolved

    def detach_profiler(self) -> None:
        """Remove the attached profiler (forwards stop being timed)."""
        with self._lock:
            self._set_kernel_profiler(None)
            self._profiler = None

    def _set_kernel_profiler(self, profiler: KernelProfiler | None) -> None:
        for step in walk_kernels(self.steps):
            step.prof = profiler

    def profile(
        self,
        inputs: np.ndarray | Tensor | None = None,
        repeats: int = 3,
        warmup: int = 1,
    ) -> PlanProfile:
        """One-shot per-kernel profile: gather/GEMM/epilogue per step.

        Runs ``warmup`` untimed forwards, then ``repeats`` timed ones,
        and returns the :class:`~repro.obs.PlanProfile` report (rows
        average over the timed forwards).  ``inputs`` defaults to a
        zero batch of the plan's compiled ``input_shape``.

        Every profiled forward runs under ``warmup_mode``, so transient
        activation-fault layers neither fire nor advance their random
        streams — profiling a campaign's plan is side-band; the
        (disarmed) fault-site steps are measured as the pass-throughs
        they are in the clean phase.  A previously attached persistent
        profiler is re-attached afterwards with its accumulation reset.
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        if inputs is None:
            inputs = np.zeros(self.input_shape, dtype=np.float32)
        with self._lock:
            previous = self._profiler
            profiler = KernelProfiler()
            try:
                with warmup_mode():
                    for _ in range(warmup):
                        self(inputs)
                    self.attach_profiler(profiler)
                    for _ in range(repeats):
                        self(inputs)
            finally:
                if previous is not None:
                    self.attach_profiler(previous)
                else:
                    self.detach_profiler()
        return profiler.result()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def __call__(self, inputs: np.ndarray | Tensor) -> np.ndarray:
        """One inference forward; returns a fresh logits array.

        Inputs are converted to a contiguous float32 array (the plan's
        numeric contract); the input array itself is never written.
        """
        logits, _ = self.forward_from(inputs)
        return logits

    def forward_from(
        self,
        inputs: np.ndarray | Tensor,
        start: int = 0,
        taps: tuple[int, ...] = (),
        *,
        lane: "Lane | None" = None,
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Run the step suffix ``start..end``, snapshotting at ``taps``.

        ``inputs`` is the activation *entering* step ``start`` — for
        ``start=0`` the plan input, otherwise an intermediate a previous
        forward tapped.  ``taps`` names step indices whose entering
        activation should be returned as owned copies (buffers are
        reused across calls and some steps return views, so snapshots
        must copy); a tap at or before ``start`` is skipped — the
        caller already holds that activation.

        Because every kernel's output is a pure function of its input
        and the live module state, a suffix run from a tapped activation
        is bit-identical to the corresponding tail of a full forward —
        the shapes (and therefore the BLAS micro-kernels) are exactly
        those of the full pass.  This is what
        :class:`~repro.runtime.replica.ReplicaPlan` builds on.

        ``lane`` (a replica lane's walk, see
        :class:`~repro.runtime.replica.Lane`) is consulted before every
        step: it may narrow the batch to the images whose activation
        differs from the clean pass, widen it back, or move on to a
        later step; ``lane.finish`` turns the last activation into the
        whole batch's logits.
        """
        x = inputs.data if isinstance(inputs, Tensor) else inputs
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        wanted = {int(tap) for tap in taps}
        snapshots: dict[int, np.ndarray] = {}
        with self._lock, span("runtime.forward", steps=len(self.steps) - start):
            if self._dirty or (self._structure, self._signature) != self._signatures():
                self.refresh()
            steps = self.steps
            if not 0 <= start <= len(steps):
                raise ConfigurationError(
                    f"start step {start} outside plan of {len(steps)} steps"
                )
            prof = self._profiler
            if prof is not None:
                prof.begin_forward()
            index = start
            while index < len(steps):
                if lane is not None:
                    index, x = lane.enter(index, x)
                    if index == len(steps):
                        break
                if index > start and index in wanted:
                    snapshots[index] = np.array(x, dtype=np.float32, copy=True)
                step = steps[index]
                if prof is None:
                    x = step.run(x)
                else:
                    started = prof.now()
                    x = step.run(x)
                    prof.step(step, started, prof.now())
                index += 1
            if lane is not None:
                x = lane.finish(x)
            # The final buffer is reused by the next call: hand the
            # caller an owned copy (logits are small).
            return np.array(x, dtype=np.float32, copy=True), snapshots

    def replicate(self) -> "ReplicaPlan":
        """Wrap this plan for replica-lane fault evaluation.

        See :class:`repro.runtime.replica.ReplicaPlan`: faulted variants
        of the model share the clean prefix of each forward and re-run
        only the steps a fault can affect.
        """
        from repro.runtime.replica import ReplicaPlan

        return ReplicaPlan(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        """One line per kernel step (diagnostics and tests)."""
        return "\n".join(
            f"[{index:2d}] {step.describe()}" for index, step in enumerate(self.steps)
        )

    def __repr__(self) -> str:
        return (
            f"InferencePlan({type(self.model).__name__}, "
            f"{len(self.steps)} steps, input_shape={self.input_shape})"
        )


def compile_model(
    model: Module,
    input_shape: tuple[int, ...],
    warm: bool = True,
    profile: bool = False,
) -> InferencePlan:
    """Compile ``model`` into an :class:`InferencePlan`.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.Module`.  Zoo architectures and layer
        containers compile to fused numpy kernels; unrecognised modules
        fall back to their own eval-mode forward (correct, not faster).
    input_shape:
        Expected input geometry — either a full batch shape
        (``(N, C, H, W)`` / ``(N, F)``) or a single-sample shape
        (``(C, H, W)``), in which case batch size 1 is assumed for the
        warm-up pass.  Plans accept any batch size at call time.
    warm:
        Run one zero-input forward at compile time to allocate buffers
        and validate the kernel shapes end-to-end (default True).  The
        pass runs under :func:`repro.nn.warmup_mode`, so per-forward
        side effects (transient activation faults) are suppressed.
    profile:
        Attach a persistent :class:`~repro.obs.KernelProfiler` (after
        the warm pass, so only real forwards accumulate).  Read the
        report via ``plan._profiler.result()`` or use the one-shot
        :meth:`InferencePlan.profile` instead.
    """
    shape = tuple(int(dim) for dim in input_shape)
    if len(shape) == 3:
        shape = (1, *shape)
    if not shape or any(dim < 1 for dim in shape):
        raise ConfigurationError(
            f"input_shape must be a non-empty positive shape, got {input_shape!r}"
        )
    with span("runtime.compile", model=type(model).__name__):
        steps = compile_module(model)
        if not steps:
            raise ConfigurationError(
                f"{type(model).__name__} compiled to an empty plan"
            )
        plan = InferencePlan(model, steps, shape)
        if warm:
            with warmup_mode():
                plan(np.zeros(shape, dtype=np.float32))
    if profile:
        plan.attach_profiler()
    return plan
