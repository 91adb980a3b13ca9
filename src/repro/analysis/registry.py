"""Rule base class and the RPL rule registry."""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar, TypeVar

from repro.analysis.findings import FileContext, Finding
from repro.errors import ConfigurationError

__all__ = ["Rule", "all_rules", "register"]


class Rule:
    """One invariant checker: an AST visitor over a single file.

    Subclasses set :attr:`rule_id` (``"RPL00x"``) and :attr:`summary`,
    scope themselves via :meth:`applies`, and yield findings from
    :meth:`check`.  Rules must be pure functions of the file context —
    the engine runs them in file order and sorts findings, so output is
    deterministic regardless of traversal details.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)) + 1,
            rule=self.rule_id,
            message=message,
        )


_RULES: dict[str, Rule] = {}

_RuleT = TypeVar("_RuleT", bound=type[Rule])


def register(cls: _RuleT) -> _RuleT:
    """Class decorator adding a rule (by its ``rule_id``) to the registry."""
    if not cls.rule_id:
        raise ConfigurationError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _RULES:
        raise ConfigurationError(f"duplicate rule id {cls.rule_id}")
    _RULES[cls.rule_id] = cls()
    return cls


def _load() -> None:
    # Importing the package registers every rule module exactly once.
    import repro.analysis.rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, in rule-id order."""
    _load()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]
