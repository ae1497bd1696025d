#!/usr/bin/env python
"""Repository lint runner (``make lint``).

Prefers ``ruff check`` with the configuration in ``pyproject.toml``.
When ruff is not installed (the pinned reproduction container ships
only the base python toolchain), falls back to a stdlib checker that
covers the highest-value error classes from the same selection:

* **E9** — files that fail to compile (syntax / tab errors);
* **F401** — module-level imports that are never used (honouring
  ``# noqa`` comments and ``__all__`` re-exports);
* **F811** — a module-level import redefined by a later import.

CI installs real ruff, so the full E4/E7/F/I selection gates every PR;
the fallback keeps ``make lint`` meaningful offline.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from typing import Iterator, List, Tuple

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories scanned by the fallback checker (ruff scans the whole
#: tree minus its excludes; the fallback pins the same code dirs).
SCAN_DIRS = ("src", "tests", "benchmarks", "examples", "tools")
SKIP_DIR_NAMES = {"__pycache__", ".git", "build", "dist", ".pytest_cache"}


def python_files() -> Iterator[str]:
    for scan_dir in SCAN_DIRS:
        root_dir = os.path.join(REPO_ROOT, scan_dir)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIR_NAMES]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _noqa_lines(source: str) -> set:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if "# noqa" in line
    }


def _exported_names(tree: ast.Module) -> set:
    """String entries of a module-level ``__all__`` list/tuple."""
    exported = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    exported.add(element.value)
    return exported


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        # String annotations ('"CanId"') count as uses, as in ruff —
        # but only in annotation position, never in docstrings.
        for annotation in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        ):
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                used.update(_IDENTIFIER.findall(annotation.value))
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # ``a.b.c`` marks ``a`` used; the Name child covers that,
            # but string annotations resolved lazily do not parse to
            # Name nodes — collect attribute heads defensively anyway.
            head = node
            while isinstance(head, ast.Attribute):
                head = head.value
            if isinstance(head, ast.Name):
                used.add(head.id)
    return used


def check_file(path: str) -> List[Tuple[int, str, str]]:
    """Return ``(line, code, message)`` findings for one file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        source = raw.decode("utf-8")
        tree = ast.parse(source, filename=path)
        compile(source, path, "exec")
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return [(line, "E999", "cannot compile: %s" % exc)]

    findings: List[Tuple[int, str, str]] = []
    noqa = _noqa_lines(source)
    exported = _exported_names(tree)
    used = _used_names(tree)

    bound: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            # ``import a.b`` re-binds the root package ``a``; repeated
            # submodule imports are idiomatic, so exempt them from F811.
            names = [
                (alias.asname or alias.name.split(".")[0], "." in alias.name)
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [(alias.asname or alias.name, False) for alias in node.names]
        else:
            continue
        if node.lineno in noqa:
            continue
        for name, dotted in names:
            if name == "*":
                continue
            if name in bound and not dotted:
                findings.append(
                    (node.lineno, "F811", "redefinition of import %r" % name)
                )
            bound[name] = node.lineno
            if name not in used and name not in exported:
                findings.append((node.lineno, "F401", "unused import %r" % name))
    return findings


def run_fallback() -> int:
    total = 0
    for path in python_files():
        for line, code, message in check_file(path):
            relative = os.path.relpath(path, REPO_ROOT)
            print("%s:%d: %s %s" % (relative, line, code, message))
            total += 1
    if total:
        print("lint (fallback): %d finding(s)" % total)
        return 1
    print("lint (fallback): clean")
    return 0


def main() -> int:
    if shutil.which("ruff"):
        return subprocess.call(["ruff", "check", REPO_ROOT])
    return run_fallback()


if __name__ == "__main__":
    sys.exit(main())
