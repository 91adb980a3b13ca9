"""RPL010 — no subscripted operands into ``runtime/`` GEMM calls.

Replica-batched evaluation (:mod:`repro.runtime.replica`) is bit-exact
only because every lane executes GEMMs with *exactly* the serial shapes
and operands: PR 4 measured that BLAS selects shape-dependent
micro-kernels whose K-accumulation order differs, so slicing rows out
of (or into) a shared-weight GEMM changes float32 bits.  A GEMM whose
operand — or ``out=`` target — is a subscript expression
(``x[lane]``, ``acts[i:j]``) is a row-split call: it hands BLAS a
*slice* of the tensor the serial path would multiply whole, which is
precisely the shape change the replica path must never introduce.

Lanes that need partial work re-run plan *suffixes*
(:meth:`ReplicaPlan.lane_forward <repro.runtime.replica.ReplicaPlan>`)
instead of splitting any single call: a step runs on a subset of the
images only when its GEMM has one fixed shape per image (a K-major
conv's stacked matmul) or it has no GEMM, and a step whose GEMM spans
the batch always gets the whole batch, with the clean activation
filling the images the fault did not reach.  Unlike RPL003 (which bans raw
GEMMs outside the approved ``runtime/kernels.py``), this rule also
covers the approved module: the contract binds the kernels themselves.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import call_name
from repro.analysis.findings import FileContext, Finding
from repro.analysis.registry import Rule, register

_GEMM_FUNCTIONS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _is_sliced(node: ast.expr) -> bool:
    return isinstance(node, ast.Subscript)


@register
class ReplicaRowSplitRule(Rule):
    rule_id = "RPL010"
    summary = (
        "subscripted operand into a runtime/ GEMM (a row-split of the "
        "shared-weight BLAS call; replica lanes re-run suffixes with "
        "serial GEMM shapes instead)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module is not None and ctx.module.startswith("runtime/")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                parts = name.split(".")
                if not (
                    len(parts) == 2
                    and parts[0] in {"np", "numpy"}
                    and parts[1] in _GEMM_FUNCTIONS
                ):
                    continue
                sliced = [arg for arg in node.args if _is_sliced(arg)]
                sliced.extend(
                    kw.value
                    for kw in node.keywords
                    if kw.value is not None and _is_sliced(kw.value)
                )
                for operand in sliced:
                    yield self.finding(
                        ctx,
                        operand,
                        f"subscripted operand into `{name}`: slicing a GEMM "
                        "operand (or its out= target) row-splits the BLAS "
                        "call, which is not float32-bit-exact across shapes; "
                        "replica lanes must re-run plan suffixes with serial "
                        "GEMM shapes (whole batches, or one fixed shape per "
                        "image) instead",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                for operand in (node.left, node.right):
                    if _is_sliced(operand):
                        yield self.finding(
                            ctx,
                            operand,
                            "subscripted operand into `@`: slicing a GEMM "
                            "operand row-splits the BLAS call, which is not "
                            "float32-bit-exact across shapes; replica lanes "
                            "must re-run plan suffixes with serial GEMM shapes "
                            "(whole batches, or one fixed shape per image) "
                            "instead",
                        )
