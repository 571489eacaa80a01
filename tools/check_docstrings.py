#!/usr/bin/env python3
"""Docstring-coverage lint for the plan, core, cache and model layers.

Walks ``src/repro/plan``, ``src/repro/core``, ``src/repro/cache`` and
``src/repro/model`` and checks that public
functions, methods, and classes (names not starting with ``_``, excluding
dunders except ``__init__`` which is exempt — the class docstring covers
construction) carry docstrings. Fails when coverage drops below
``THRESHOLD``, listing every undocumented definition so the failure is
actionable.

Pure AST analysis — nothing is imported, so the lint runs without
``PYTHONPATH`` and without executing package code.

Usage: python tools/check_docstrings.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGES = (
    "src/repro/plan", "src/repro/core", "src/repro/cache", "src/repro/model",
)
THRESHOLD = 0.95


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module):
    """Yield (qualified_name, node) for public defs, classes, and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if not is_public(node.name):
                continue
            yield node.name, node
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public(member.name):
                        yield f"{node.name}.{member.name}", member


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    total, documented, missing = 0, 0, []
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            relative = path.relative_to(root)
            if ast.get_docstring(tree) is None:
                missing.append(f"{relative}: module docstring")
                total += 1
            else:
                total += 1
                documented += 1
            for name, node in public_definitions(tree):
                total += 1
                if ast.get_docstring(node) is None:
                    missing.append(f"{relative}:{node.lineno}: {name}")
                else:
                    documented += 1
    coverage = documented / total if total else 1.0
    status = "ok" if coverage >= THRESHOLD else "FAIL"
    print(
        f"docstrings {status}: {documented}/{total} public definitions "
        f"documented ({coverage:.1%}, threshold {THRESHOLD:.0%}) "
        f"across {', '.join(PACKAGES)}"
    )
    if coverage < THRESHOLD:
        print("undocumented public definitions:", file=sys.stderr)
        for entry in missing:
            print(f"  {entry}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
