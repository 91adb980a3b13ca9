"""Compiled inference runtime: the repeated-forward fast path.

Fault-injection campaigns and the serving stack spend essentially all
their time in inference-only forward passes; the module path pays
autograd ``Tensor``/``Function`` allocation, per-layer python dispatch,
and fresh intermediate allocation on every one.  ``repro.runtime``
removes all three:

    from repro.runtime import compile_model

    plan = compile_model(model, (batch, 3, 32, 32))
    logits = plan(inputs)          # bit-identical to the eval forward

The plan is a flat list of pure-numpy kernels (im2col conv GEMMs with
fused BatchNorm + bounded-activation epilogues, buffer reuse, zero
autograd objects) that is **bit-exact** with the eval-mode module
forward and preserves fault-injection semantics: parameters are read by
live view and folded constants refresh automatically when the fault
injector, a checkpoint load, or quantisation touches the model (see
:mod:`repro.runtime.plan` for the exact contract).

The plan is the only inference path: :class:`repro.eval.Evaluator`
(campaign trials, clean-accuracy passes, experiments) and
:class:`repro.serve.ModelRegistry` (one plan per resident checkpoint)
always compile.  The module forward remains for training and as the
bit-exactness oracle.
"""

from repro.runtime.compiler import compile_module, register_block_compiler
from repro.runtime.kernels import Kernel
from repro.runtime.plan import InferencePlan, compile_model
from repro.runtime.replica import ReplicaPlan, fault_parameters

__all__ = [
    "InferencePlan",
    "Kernel",
    "ReplicaPlan",
    "compile_model",
    "compile_module",
    "fault_parameters",
    "register_block_compiler",
]
