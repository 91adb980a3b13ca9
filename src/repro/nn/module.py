"""Module base class: parameter registration, traversal, (de)serialisation.

A deliberately PyTorch-shaped API so the reproduction reads like the
original FitAct codebase would: ``named_parameters``, ``state_dict``,
``train``/``eval``, and attribute-assignment registration of children.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError, ShapeError
from repro.nn.parameter import Parameter

__all__ = [
    "Module",
    "eval_mode",
    "invalidate_runtime_plans",
    "is_eval_forced",
    "is_warmup",
    "register_runtime_plan",
    "warmup_mode",
]

# ----------------------------------------------------------------------
# Thread-local inference override
# ----------------------------------------------------------------------
# Inference-mode forwards (fault campaigns, the serving stack) must not
# mutate the *shared* ``training`` flag: under ``repro.serve`` several
# threads run forwards on the same model concurrently, and a
# set-eval/restore dance in one thread can leave another thread's
# forward running BatchNorm in training mode (updating running stats
# mid-serve).  Instead, ``eval_mode()`` forces ``Module.training`` to
# read False *in the current thread only* — other threads, and the
# stored flag itself, are untouched.
_eval_override = threading.local()


def is_eval_forced() -> bool:
    """Whether the current thread is inside an :func:`eval_mode` block."""
    return getattr(_eval_override, "depth", 0) > 0


@contextmanager
def eval_mode() -> Iterator[None]:
    """Force eval-mode semantics for the current thread only.

    Inside the block every ``module.training`` read returns False
    (BatchNorm uses running stats, Dropout is the identity) without
    writing to any module — safe to nest and safe to run concurrently
    with other threads training or serving the same model.
    """
    depth = getattr(_eval_override, "depth", 0)
    _eval_override.depth = depth + 1
    try:
        yield
    finally:
        _eval_override.depth = depth


# ----------------------------------------------------------------------
# Warm-up override
# ----------------------------------------------------------------------
# Compiled plans run one throwaway forward at build time to allocate
# buffers and validate shapes.  That pass must be side-effect free even
# for modules with per-forward state — most importantly transient
# activation-fault layers, whose random streams would otherwise be
# advanced by the warm-up and desynchronised from the module path.
_warmup_override = threading.local()


def is_warmup() -> bool:
    """Whether the current thread is inside a :func:`warmup_mode` block."""
    return getattr(_warmup_override, "depth", 0) > 0


@contextmanager
def warmup_mode() -> Iterator[None]:
    """Mark forwards on the current thread as shape-probing warm-ups.

    Stateful per-forward effects (transient activation-fault injection)
    check this flag and skip themselves, so a compile-time warm pass
    consumes no random numbers and perturbs no counters.
    """
    depth = getattr(_warmup_override, "depth", 0)
    _warmup_override.depth = depth + 1
    try:
        yield
    finally:
        _warmup_override.depth = depth


# ----------------------------------------------------------------------
# Compiled-plan bookkeeping
# ----------------------------------------------------------------------
def register_runtime_plan(module: "Module", plan: object) -> None:
    """Attach a compiled inference plan to the module it was built from.

    The module keeps only a weak reference; plans register themselves so
    parameter-mutating code paths (fault injection, checkpoint loads,
    quantisation) can call :func:`invalidate_runtime_plans` and have
    every plan recompute its folded constants before its next forward.
    """
    plans = module.__dict__.setdefault("_runtime_plans", [])
    plans.append(weakref.ref(plan))


def invalidate_runtime_plans(module: "Module") -> None:
    """Mark every compiled plan of ``module`` stale (dead refs pruned)."""
    plans = module.__dict__.get("_runtime_plans")
    if not plans:
        return
    alive = []
    for ref in plans:
        plan = ref()
        if plan is not None:
            plan.invalidate()
            alive.append(ref)
    module.__dict__["_runtime_plans"] = alive


class Module:
    """Base class for all neural-network modules.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Assigning a :class:`Parameter`, :class:`Module`, or registered buffer
    as an attribute automatically records it for traversal, optimisation,
    state saving, and fault injection.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_training", True)

    # ------------------------------------------------------------------
    # Training flag
    # ------------------------------------------------------------------
    @property
    def training(self) -> bool:
        """Training-mode flag, as seen by the *current thread*.

        Reads False inside an :func:`eval_mode` block regardless of the
        stored flag, so inference-mode forwards never need to mutate
        (and racily restore) shared module state.  Assignment writes the
        stored flag as before.
        """
        if is_eval_forced():
            return False
        return self.__dict__.get("_training", True)

    @training.setter
    def training(self, mode: bool) -> None:
        self.__dict__["_training"] = bool(mode)

    # ------------------------------------------------------------------
    # Attribute routing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        registries_ready = "_parameters" in self.__dict__
        if isinstance(value, Parameter):
            if not registries_ready:
                raise ConfigurationError(
                    "assign parameters after calling Module.__init__()"
                )
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
            # Plain dict assignment: replacing an existing key keeps its
            # position, so swapping a child (model surgery) preserves the
            # forward order of containers like Sequential.
            self._parameters[name] = value
        elif isinstance(value, Module):
            if not registries_ready:
                raise ConfigurationError(
                    "assign submodules after calling Module.__init__()"
                )
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
            self._modules[name] = value
        else:
            if registries_ready:
                self._parameters.pop(name, None)
                self._buffers.pop(name, None)
                self._modules.pop(name, None)
            object.__setattr__(self, name, value)
            return
        # Also expose via normal attribute access.
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray | None) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats).

        Buffers are saved in ``state_dict`` but are *not* parameters, so
        they are excluded from both optimisation and the fault space.
        """
        if value is not None:
            value = np.asarray(value)
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, value: Parameter | None) -> None:
        """Register a (possibly absent) parameter slot by name."""
        self._parameters[name] = value
        object.__setattr__(self, name, value)

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a registered buffer's value (keeps registry in sync)."""
        if name not in self._buffers:
            raise ConfigurationError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> Tensor:
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        yield from self._modules.items()

    def children(self) -> Iterator["Module"]:
        for _, child in self.named_children():
            yield child

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if param is not None:
                yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            if buffer is not None:
                yield (f"{prefix}.{name}" if prefix else name), buffer
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

    def buffers(self) -> Iterator[np.ndarray]:
        for _, buffer in self.named_buffers():
            yield buffer

    def get_submodule(self, path: str) -> "Module":
        """Resolve a dotted module path (e.g. ``"features.3"``)."""
        module: Module = self
        if not path:
            return module
        for part in path.split("."):
            if part not in module._modules:
                raise ConfigurationError(f"no submodule {part!r} in path {path!r}")
            module = module._modules[part]
        return module

    def set_submodule(self, path: str, replacement: "Module") -> None:
        """Replace the submodule at a dotted path (used by model surgery)."""
        if not path:
            raise ConfigurationError("cannot replace the root module")
        parent_path, _, leaf = path.rpartition(".")
        parent = self.get_submodule(parent_path)
        if leaf not in parent._modules:
            raise ConfigurationError(f"no submodule {leaf!r} under {parent_path!r}")
        setattr(parent, leaf, replacement)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        """Apply ``fn`` to self and every submodule (children first)."""
        for child in self.children():
            child.apply(fn)
        fn(self)
        return self

    # ------------------------------------------------------------------
    # Mode and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, requires_grad: bool = True) -> "Module":
        """Set ``requires_grad`` on every parameter (used to freeze ΘA)."""
        for param in self.parameters():
            param.requires_grad = requires_grad
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``{dotted_name: array}`` of parameters and buffers (copies)."""
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(
        self, state: Mapping[str, np.ndarray], strict: bool = True
    ) -> None:
        """Load values produced by :meth:`state_dict`.

        With ``strict`` (default) every entry must match a parameter or
        buffer and vice versa; shapes must agree exactly.
        """
        own_params = dict(self.named_parameters())
        own_buffer_names = [name for name, _ in self.named_buffers()]
        matched: set[str] = set()
        for name, value in state.items():
            value = np.asarray(value)
            if name in own_params:
                param = own_params[name]
                if param.shape != value.shape:
                    raise ShapeError(
                        f"parameter {name!r}: expected shape {param.shape}, "
                        f"got {value.shape}"
                    )
                param.data = value.astype(param.dtype, copy=True)
                matched.add(name)
            elif name in own_buffer_names:
                self._assign_buffer_by_path(name, value)
                matched.add(name)
            elif strict:
                raise ConfigurationError(f"unexpected state entry {name!r}")
        if strict:
            missing = (set(own_params) | set(own_buffer_names)) - matched
            if missing:
                raise ConfigurationError(f"missing state entries: {sorted(missing)}")
        invalidate_runtime_plans(self)

    def _assign_buffer_by_path(self, path: str, value: np.ndarray) -> None:
        module_path, _, leaf = path.rpartition(".")
        module = self.get_submodule(module_path)
        current = module._buffers.get(leaf)
        if current is not None and np.asarray(current).shape != value.shape:
            raise ShapeError(
                f"buffer {path!r}: expected shape {np.asarray(current).shape}, "
                f"got {value.shape}"
            )
        module._update_buffer(leaf, value.copy())

    # ------------------------------------------------------------------
    # Repr
    # ------------------------------------------------------------------
    def extra_repr(self) -> str:
        """One-line summary of configuration, shown in :meth:`__repr__`."""
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        if len(lines) == 1:
            return lines[0] + ")"
        lines.append(")")
        return "\n".join(lines)
