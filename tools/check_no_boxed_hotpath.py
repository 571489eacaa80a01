#!/usr/bin/env python3
"""Fail when an interned hot-path module constructs boxed objects.

The ``repro.core`` refactor's contract is that the hot modules below speak
term IDs end to end: no boxed :class:`~repro.model.terms.Constant` is
constructed and no ``frozenset(...)`` of objects is materialized on a
counting, embedding, or canonicalization path. This lint greps those modules
for the two constructions and fails CI on any hit, so a future edit cannot
quietly reintroduce per-candidate boxing.

A line may opt out with a trailing ``# boxed-ok`` comment — for genuinely
cold boundary code living in a hot module, or for a ``frozenset`` that holds
plain ints (the interned representation itself, e.g. the ID backbone of
``IFactSet``). The waiver is part of the diff and therefore reviewable.

The ``repro.plan`` refactor adds a second contract: modules whose query
evaluation was routed through the compiled-plan pipeline must not drift back
to the boxed evaluators. ``ROUTED_MODULES`` are checked for calls to
``evaluate_naive`` and for imports from ``repro.queries.evaluation`` — the
naive oracle stays available everywhere else (tests, benchmarks, the
rewriting executor's witness path, which carries an explicit waiver).

A third contract covers every module under ``src/``: an interned constant
is decoded through the symbol table's shared term
(``SymbolTable.constant_term``), so no line may wrap a ``constant_value(``
call in a fresh ``Constant(``.

Usage: python tools/check_no_boxed_hotpath.py [repo_root]
Exit 0 when clean, 1 with a report of every violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Modules that must stay free of boxed construction.
HOT_MODULES = (
    "src/repro/core/symbols.py",
    "src/repro/core/iatoms.py",
    "src/repro/core/factset.py",
    "src/repro/core/views.py",
    "src/repro/tableaux/core.py",
    "src/repro/consistency/coresearch.py",
    "src/repro/confidence/engine/kernel.py",
    "src/repro/confidence/engine/memo.py",
)

#: Boxed constructions banned on hot paths. ``Constant(`` builds a boxed
#: term; ``frozenset(`` materializes an object set where a bitmask, an int
#: set, or an IFactSet belongs.
BANNED = re.compile(r"\b(Constant|frozenset)\(")

#: Modules whose query answering is routed through ``repro.plan``; a direct
#: call to a pre-plan evaluator here silently bypasses the plan cache and
#: the shared data-source indexes.
ROUTED_MODULES = (
    "src/repro/confidence/answers.py",
    "src/repro/confidence/worlds.py",
    "src/repro/service/scheduler.py",
    "src/repro/service/server.py",
    "src/repro/rewriting/executor.py",
    "src/repro/tableaux/query_answers.py",
)

#: Direct evaluator use banned in routed modules: calling the naive
#: evaluator, or importing from the boxed evaluation module at all.
BANNED_ROUTED = re.compile(
    r"\bevaluate_naive\s*\("
    r"|from repro\.queries\.evaluation import"
    r"|import repro\.queries\.evaluation\b"
)

#: Boxing a decoded value afresh, banned everywhere in ``src/``: the symbol
#: table keeps one shared ``Constant`` per constant (``constant_term``).
BANNED_DECODE = re.compile(r"\bConstant\(\s*[\w.]*constant_value\(")

WAIVER = "# boxed-ok"


def check_module(path: Path, banned: re.Pattern = BANNED) -> list:
    problems = []
    in_docstring = False
    delimiter = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        # Track triple-quoted strings so prose mentioning the banned names
        # (docstrings explaining the contract) does not trip the lint.
        if in_docstring:
            if delimiter in stripped:
                in_docstring = False
            continue
        one_line_string = False
        for quote in ('"""', "'''"):
            if stripped.startswith(quote):
                if quote in stripped[len(quote):]:
                    one_line_string = True
                else:
                    in_docstring = True
                    delimiter = quote
                break
        if in_docstring or one_line_string:
            continue
        code = line.split("#", 1)[0]
        if banned.search(code) and WAIVER not in line:
            problems.append(f"{path}:{number}: {stripped}")
    return problems


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    problems = []
    missing = []
    for relative in HOT_MODULES:
        path = root / relative
        if not path.exists():
            missing.append(f"hot module missing: {relative}")
            continue
        problems.extend(check_module(path))
    for relative in ROUTED_MODULES:
        path = root / relative
        if not path.exists():
            missing.append(f"routed module missing: {relative}")
            continue
        problems.extend(check_module(path, banned=BANNED_ROUTED))
    sources = sorted((root / "src").rglob("*.py"))
    for path in sources:
        problems.extend(check_module(path, banned=BANNED_DECODE))
    for problem in missing + problems:
        print(problem)
    if problems or missing:
        print(f"\n{len(missing + problems)} hot-path violation(s).")
        return 1
    print(
        f"{len(HOT_MODULES)} hot modules clean (no boxed construction); "
        f"{len(ROUTED_MODULES)} routed modules clean (no direct evaluator use); "
        f"{len(sources)} modules decode through shared terms."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
