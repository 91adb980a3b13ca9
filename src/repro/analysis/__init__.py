"""Invariant-enforcing static analysis (``repro lint``).

PRs 3-5 established correctness invariants — bit-exactness, plan
staleness signalling, thread-safe eval mode, deterministic journaling —
that previously lived only in prose.  This package turns them into
machine-checked rules: an AST lint engine with a rule registry
(``RPL001``..``RPL008``), per-line suppression comments, a committed
baseline for grandfathered findings, text/JSON reporters, and CI exit
codes.  See ``docs/INVARIANTS.md`` for the invariant catalogue and
which PR established each one.

Entry points: the ``repro lint`` CLI subcommand, or programmatically::

    from repro.analysis import lint_paths
    result = lint_paths(["src", "tests"], baseline="lint-baseline.json")
    assert not result.findings
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import LintError, LintResult, lint_paths, lint_text
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintError",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_text",
    "render_json",
    "render_text",
]
