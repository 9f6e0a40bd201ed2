"""Rule ``event-source-registry``: every wake hint is a registered contract.

The event-horizon engine (docs/ARCHITECTURE.md, "Event-horizon time
skipping") jumps simulated time to the minimum of every component's wake
hint.  A hint may be early but **never late** -- and the contract only
holds if every hint source is known, reviewed and documented.  A new
component that quietly grows a ``*_next_event_hint`` / ``next_event_cycle``
/ ``next_due_cycle`` / ``*_post_issue_hint`` method is a new event source;
if it is not folded into the horizon (and its invariants documented), skips
can jump past its events and silently change simulated behaviour.

This rule cross-checks three artefacts:

* the **code**: every class in the scanned tree defining a hint-shaped
  method (``HINT_METHOD_PATTERN``),
* the **registry**: ``repro.lint.manifest.HINT_EVENT_SOURCES`` -- the
  reviewed list of (file, class, method) hint sources,
* the **doc**: each registered class must be named in
  ``docs/ARCHITECTURE.md`` so the contract's prose stays complete.

An unregistered hint method, a stale registry entry, and an undocumented
source class are each findings.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.lint.framework import Finding, Project, ProjectRule
from repro.lint import manifest


class EventSourceRegistryRule(ProjectRule):
    name = "event-source-registry"
    description = (
        "classes with *_next_event_hint-shaped methods must be registered "
        "in the hint-contract registry and named in ARCHITECTURE.md"
    )

    def __init__(
        self,
        registry=None,
        pattern: str = manifest.HINT_METHOD_PATTERN,
        scope: Tuple[str, ...] = ("src/repro/",),
        architecture_doc: Optional[str] = manifest.ARCHITECTURE_DOC,
    ) -> None:
        self.registry = frozenset(
            manifest.HINT_EVENT_SOURCES if registry is None else registry
        )
        self.pattern = re.compile(pattern)
        self.scope = tuple(scope)
        self.architecture_doc = architecture_doc

    def _in_scope(self, rel_path: str) -> bool:
        return any(rel_path.startswith(prefix) for prefix in self.scope)

    def check_project(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        found = {}  # (path, class, method) -> def node line
        for rel_path in sorted(project.files):
            if not self._in_scope(rel_path):
                continue
            tree = project.files[rel_path].tree
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for statement in node.body:
                    if not isinstance(
                        statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if self.pattern.search(statement.name):
                        found[(rel_path, node.name, statement.name)] = (
                            statement.lineno, statement.col_offset,
                        )

        architecture = (
            project.read_text(self.architecture_doc)
            if self.architecture_doc
            else None
        )

        for entry, (line, col) in sorted(found.items()):
            rel_path, class_name, method = entry
            if entry not in self.registry:
                findings.append(
                    Finding(
                        rule=self.name, path=rel_path, line=line, col=col,
                        message=(
                            f"{class_name}.{method} looks like an event-"
                            f"horizon wake hint but is not in the hint-"
                            f"contract registry "
                            f"(repro/lint/manifest.py HINT_EVENT_SOURCES); "
                            f"register it and document the source in "
                            f"{self.architecture_doc or 'the architecture doc'}"
                        ),
                    )
                )
            elif architecture is not None and class_name not in architecture:
                findings.append(
                    Finding(
                        rule=self.name, path=rel_path, line=line, col=col,
                        message=(
                            f"registered event source {class_name} is not "
                            f"named in {self.architecture_doc}: the hint "
                            f"contract's documentation is incomplete"
                        ),
                    )
                )

        scanned_scope = any(self._in_scope(p) for p in project.files)
        if scanned_scope:
            for entry in sorted(self.registry):
                rel_path, class_name, method = entry
                if rel_path in project.files and entry not in found:
                    findings.append(
                        Finding(
                            rule=self.name, path=rel_path, line=1, col=0,
                            message=(
                                f"stale registry entry: "
                                f"{class_name}.{method} no longer exists in "
                                f"{rel_path}; update HINT_EVENT_SOURCES"
                            ),
                        )
                    )
        return findings
