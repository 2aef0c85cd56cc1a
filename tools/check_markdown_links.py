#!/usr/bin/env python3
"""Check that intra-repo markdown links and cited paths resolve.

Scans every ``*.md`` file in the repository (skipping dot-directories
and virtualenv-ish folders) for inline links and verifies that each
**relative** target exists on disk.  External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#section``) are ignored;
``path#anchor`` targets are checked for the path only.

It also scans the Python files under ``src/`` and ``benchmarks/`` for
cited documents and files -- any ``*.md`` name and any slash-separated
``*.py`` path in their text -- and verifies that each exists relative
to the repository root, so a docstring or a printed note never points
at a file that is not there.

Used by the CI docs job and, importably, by
``tests/test_docs_links.py`` so broken links fail tier-1 locally too.

Usage::

    python tools/check_markdown_links.py [ROOT]
"""

from __future__ import annotations

import os
import re
import sys
from typing import List, Tuple

#: Inline markdown links: [text](target).  Reference-style links are rare
#: in this repo and intentionally out of scope.
LINK_PATTERN = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Paths cited in program text: a ``*.md`` name (with or without
#: directories) or a slash-separated ``*.py`` path, as a whole token.
CITATION_PATTERN = re.compile(
    r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md|(?:[\w.-]+/)+[\w.-]+\.py)\b")

#: The trees whose Python files are scanned for cited paths.
CITING_TREES = ("src", "benchmarks")

SKIPPED_DIRS = {".git", ".venv", "venv", "node_modules", "__pycache__",
                ".pytest_cache", ".hypothesis"}


def _files(root: str, suffix: str) -> List[str]:
    found = []
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [name for name in subdirs
                      if name not in SKIPPED_DIRS and not name.startswith(".")]
        for name in files:
            if name.lower().endswith(suffix):
                found.append(os.path.join(directory, name))
    return sorted(found)


def markdown_files(root: str) -> List[str]:
    return _files(root, ".md")


def citing_files(root: str) -> List[str]:
    return [path for tree in CITING_TREES
            for path in _files(os.path.join(root, tree), ".py")]


def check_file(path: str) -> List[Tuple[str, str]]:
    """Broken (target, reason) pairs for one markdown file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    broken = []
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), file_part))
        if not os.path.exists(resolved):
            broken.append((target, f"{resolved} does not exist"))
    return broken


def check_citations(path: str, root: str) -> List[Tuple[str, str]]:
    """Broken (cited path, reason) pairs for one Python file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    broken = []
    for match in CITATION_PATTERN.finditer(text):
        cited = match.group(1)
        resolved = os.path.normpath(os.path.join(root, cited))
        if not os.path.exists(resolved):
            broken.append((cited, f"{resolved} does not exist"))
    return broken


def check_tree(root: str) -> List[str]:
    """Human-readable problem lines for every markdown file under *root*
    and every Python file under its citing trees."""
    problems = []
    for path in markdown_files(root):
        for target, reason in check_file(path):
            problems.append(f"{os.path.relpath(path, root)}: broken link "
                            f"({target}): {reason}")
    for path in citing_files(root):
        for cited, reason in check_citations(path, root):
            problems.append(f"{os.path.relpath(path, root)}: cites a missing "
                            f"file ({cited}): {reason}")
    return problems


def main(argv: List[str]) -> int:
    root = argv[1] if len(argv) > 1 else "."
    problems = check_tree(root)
    for line in problems:
        print(line, file=sys.stderr)
    print(f"checked {len(markdown_files(root))} markdown files and "
          f"{len(citing_files(root))} Python files: "
          f"{'OK' if not problems else f'{len(problems)} broken references'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
