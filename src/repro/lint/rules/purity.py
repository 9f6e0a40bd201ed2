"""Rule ``mechanism-query-purity``: polled mechanism queries only read.

Schedule sharing (:mod:`repro.experiments.sharing`) replays a mechanism
over another job's recorded ACT/PRE/REF hook stream and polls its queries
after every event.  That is only sound if a mechanism is a pure function
of its hook stream: the memory controller polls ``backoff_asserted`` or
``has_pending_refreshes`` a data-dependent number of times per cycle, so a
query that changed state would make the outcome depend on how often it was
asked -- and a replay asks on a different schedule than a simulation.

In the mechanism package this rule flags, inside every polled query
(:data:`repro.lint.manifest.MECHANISM_QUERIES`):

* assignments, augmented assignments and ``del`` whose target is rooted at
  ``self`` (``self.x = ...``, ``self.x[i] += ...``, ``del self.x[k]``),
* calls of mutating container methods on ``self`` attributes
  (``self._pending.pop(...)``, ``self.table.clear()``, ...).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.framework import FileContext, Finding, Rule
from repro.lint import manifest

#: Container methods that mutate their receiver.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "pop",
    "popleft", "popitem", "remove", "discard", "add", "clear", "update",
    "setdefault", "sort", "reverse", "rotate", "fill",
})


def _rooted_at_self(node: ast.AST) -> bool:
    """True for ``self`` and any attribute/subscript chain starting at it."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _targets(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.Assign):
        found: List[ast.AST] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                found.extend(target.elts)
            else:
                found.append(target)
        return found
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


class MechanismQueryPurityRule(Rule):
    name = "mechanism-query-purity"
    description = (
        "polled mechanism queries (backoff_asserted, rfm_pending_banks, "
        "has_pending_refreshes, ...) must not change self state"
    )
    targets = manifest.MECHANISM_QUERY_TARGETS

    def __init__(self, targets=None, queries=None) -> None:
        if targets is not None:
            self.targets = tuple(targets)
        self.queries = frozenset(
            manifest.MECHANISM_QUERIES if queries is None else queries
        )

    def visit_FunctionDef(
        self, node: ast.FunctionDef, ctx: FileContext
    ) -> Optional[List[Finding]]:
        if node.name not in self.queries:
            return None
        findings: List[Finding] = []
        for child in ast.walk(node):
            for target in _targets(child):
                if _rooted_at_self(target):
                    findings.append(
                        self.finding(
                            ctx, child,
                            f"query {node.name}() writes self state; polled "
                            f"queries must be side-effect free",
                        )
                    )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATORS
                and isinstance(child.func.value, (ast.Attribute, ast.Subscript))
                and _rooted_at_self(child.func.value)
            ):
                findings.append(
                    self.finding(
                        ctx, child,
                        f"query {node.name}() calls .{child.func.attr}() on "
                        f"self state; polled queries must be side-effect free",
                    )
                )
        return findings
