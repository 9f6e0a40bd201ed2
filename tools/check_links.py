#!/usr/bin/env python3
"""Check that relative links in the repository's Markdown files resolve.

Scans every ``*.md`` file under the repository root (skipping dot-directories
and caches) for inline Markdown links ``[text](target)`` and verifies that
each *relative* target exists on disk.  External links (``http(s)://``,
``mailto:``) are skipped.  An anchor (``#section``, in-page or after a
Markdown target) must name a heading of that document, using GitHub's
heading slugs -- so renaming a section cannot leave links dangling.

Exit status: 0 when every link resolves, 1 otherwise (one diagnostic line per
broken link) -- suitable as a CI step and callable from the test suite.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: Inline Markdown link: [text](target).  Images ![alt](target) match too via
#: the optional leading "!".
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Directories never scanned (caches, VCS internals, virtualenvs).
SKIPPED_DIRS = {".git", ".repro-cache", ".ci-cache", "__pycache__", ".venv", "node_modules"}

#: Generated retrieval artifacts (paper extraction leaves dangling figure
#: references in them); only hand-written documentation is checked.
SKIPPED_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}

#: Link schemes that are not local files.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: An ATX heading line (``## Title``).
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def heading_slug(title: str) -> str:
    """GitHub's anchor for a heading: lowercase, punctuation other than
    ``-`` and ``_`` dropped, spaces turned into hyphens."""
    return re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")


def anchors(text: str) -> Set[str]:
    """Every heading anchor of a Markdown document (fenced code skipped;
    repeated headings get GitHub's ``-1``, ``-2`` suffixes)."""
    found: Set[str] = set()
    seen: Dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING_PATTERN.match(line)
        if match is None:
            continue
        slug = heading_slug(match.group(1))
        repeat = seen.get(slug, 0)
        seen[slug] = repeat + 1
        found.add(f"{slug}-{repeat}" if repeat else slug)
    return found


def markdown_files(root: Path) -> Iterator[Path]:
    """Every ``*.md`` file under ``root``, skipping ignored directories."""
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIPPED_DIRS for part in path.parts):
            continue
        if path.name in SKIPPED_FILES:
            continue
        yield path


def extract_links(text: str) -> List[str]:
    """All inline link targets of a Markdown document."""
    return LINK_PATTERN.findall(text)


def broken_links(root: Path) -> List[Tuple[Path, str]]:
    """All (file, target) pairs whose relative target or anchor does not
    resolve."""
    broken: List[Tuple[Path, str]] = []
    for markdown in markdown_files(root):
        for target in extract_links(markdown.read_text(encoding="utf-8")):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            local, _, anchor = target.partition("#")
            resolved = (markdown.parent / local).resolve() if local else markdown
            if not resolved.exists():
                broken.append((markdown, target))
            elif anchor and resolved.suffix == ".md" and anchor not in anchors(
                resolved.read_text(encoding="utf-8")
            ):
                broken.append((markdown, target))
    return broken


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems = broken_links(root)
    checked = len(list(markdown_files(root)))
    for markdown, target in problems:
        print(f"{markdown.relative_to(root)}: broken relative link -> {target}")
    if problems:
        print(f"{len(problems)} broken link(s) across {checked} Markdown files")
        return 1
    print(f"all relative links resolve across {checked} Markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
