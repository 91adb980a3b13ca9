"""RPL004 — nondeterminism in journaled paths (``fault/``, ``store/``,
``coord/``).

The byte-identical resume contract (PR 5): a campaign interrupted and
resumed — or drained by several writers whose segments are folded —
must reproduce the straight run's journal and report byte for byte.
The contract covers the coordination layer too: a multi-worker,
steal-heavy, crash-interrupted drain must journal the same records a
serial run would, so ``coord/`` is held to the same bar (its lease
staleness clock is the *filesystem's* — ``fs_now`` — precisely so no
local wall-clock read decides protocol state).  That only holds if
nothing on the journaled path consults ambient state:

- ``time.time()``/``time.time_ns()`` — wall clock.  Durations belong in
  side-band spans (``repro.obs``), never in journaled records;
  timestamps must be passed in by the caller.
- the stdlib ``random`` module — process-global, seed-shared state.
  All randomness flows through explicitly seeded ``np.random.Generator``
  streams (``repro.utils.rng``).
- ``np.random.default_rng()`` with no seed — OS entropy.
- iterating a ``set`` — order varies with hash seeding across
  processes; anything feeding serialised output must ``sorted()`` first.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import call_name
from repro.analysis.findings import FileContext, Finding
from repro.analysis.registry import Rule, register

_WALL_CLOCK = {"time.time", "time.time_ns"}


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in {"set", "frozenset"}
    return False


@register
class NondeterminismRule(Rule):
    rule_id = "RPL004"
    summary = (
        "nondeterminism on a journaled path (wall clock, global random "
        "state, unseeded rng, set iteration)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module is not None and ctx.module.startswith(
            ("coord/", "fault/", "store/")
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib `random` in a journaled path shares "
                            "process-global state; use explicitly seeded "
                            "np.random.Generator streams (repro.utils.rng)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib `random` in a journaled path shares "
                        "process-global state; use explicitly seeded "
                        "np.random.Generator streams (repro.utils.rng)",
                    )
            elif isinstance(node, ast.For):
                if _is_set_expression(node.iter):
                    yield self.finding(
                        ctx,
                        node.iter,
                        "iterating a set: order varies with hash seeding "
                        "across processes and would leak into journaled/"
                        "serialised output; wrap in sorted()",
                    )
            elif isinstance(node, ast.comprehension):
                if _is_set_expression(node.iter):
                    yield self.finding(
                        ctx,
                        node.iter,
                        "comprehension over a set: order varies with hash "
                        "seeding across processes; wrap in sorted()",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterable[Finding]:
        name = call_name(node)
        if name is None:
            return
        if name in _WALL_CLOCK:
            yield self.finding(
                ctx,
                node,
                f"`{name}()` reads the wall clock on a journaled path; "
                "durations go to side-band spans, timestamps are "
                "passed in by the caller",
            )
        elif name.split(".")[0] == "random" and "." in name:
            yield self.finding(
                ctx,
                node,
                f"`{name}()` uses the process-global random state; use an "
                "explicitly seeded np.random.Generator (repro.utils.rng)",
            )
        elif (
            name in {"np.random.default_rng", "numpy.random.default_rng"}
            and not node.args
            and not node.keywords
        ):
            yield self.finding(
                ctx,
                node,
                "unseeded np.random.default_rng() draws OS entropy; "
                "journaled paths must derive seeds deterministically "
                "(repro.utils.rng.derive_seed)",
            )
