"""RPL009 — raw clock reads outside the observability layer.

PR 7 routes timing through two audited funnels: ``repro.obs`` (spans,
the kernel profiler's ``now()``) and ``repro.utils.timing`` (the
``Timer``/``time_callable`` benchmarking helpers).  A raw
``time.perf_counter()`` sprinkled anywhere else is invisible to the
tracer — it produces a number nothing can correlate, export, or assert
an overhead bound on — and in journaled paths it is one typo away from
an RPL004 wall-clock violation.

New timing therefore goes through ``repro.obs.span``, a profiler hook,
or ``utils.timing``; the handful of legitimate pre-existing callers
(serve queue deadlines, training wall-time reporting) are grandfathered
in the lint baseline, and a deliberate new site carries an inline
``# repro-lint: disable=RPL009`` with a justifying comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import call_name
from repro.analysis.findings import FileContext, Finding
from repro.analysis.registry import Rule, register

#: Every clock-reading call in ``time`` (sleep is pacing, not reading).
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: Modules that *are* the timing funnel.
_FUNNELS = ("obs/", "utils/timing")


@register
class RawTimingRule(Rule):
    rule_id = "RPL009"
    summary = (
        "raw clock read outside repro.obs / utils.timing (route timing "
        "through spans, profiler hooks, or the Timer helpers)"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return False
        return not ctx.module.startswith(_FUNNELS)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"`{name}()` reads a clock outside the observability "
                    "layer; use repro.obs.span / a profiler hook / "
                    "utils.timing, or disable with a justifying comment",
                )
