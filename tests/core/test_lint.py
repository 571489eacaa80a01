"""The hot-path lint must pass on the checked-in tree (tier-1 guard)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_hot_modules_are_free_of_boxed_construction():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_lint_catches_a_violation(tmp_path):
    hot = tmp_path / "src" / "repro" / "core"
    hot.mkdir(parents=True)
    for module in (
        "symbols.py",
        "iatoms.py",
        "factset.py",
        "views.py",
    ):
        (hot / module).write_text("x = 1\n")
    (tmp_path / "src" / "repro" / "tableaux").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "consistency").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "confidence" / "engine").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "tableaux" / "core.py").write_text(
        "bad = Constant('a')\n"
    )
    (tmp_path / "src" / "repro" / "consistency" / "coresearch.py").write_text(
        "ok = set()\nwaived = frozenset([1])  # boxed-ok: ints\n"
    )
    (tmp_path / "src" / "repro" / "confidence" / "engine" / "kernel.py").write_text(
        "s = frozenset(signature)\n"
    )
    (tmp_path / "src" / "repro" / "confidence" / "engine" / "memo.py").write_text(
        '"""Docstrings may say Constant( freely."""\nx = 2\n'
    )
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "tableaux/core.py" in result.stdout  # Constant( construction
    assert "kernel.py" in result.stdout  # frozenset( construction
    assert "coresearch.py" not in result.stdout  # waiver honoured
    assert "memo.py" not in result.stdout  # docstring mention ignored


def test_lint_flags_fresh_boxing_of_a_decoded_constant(tmp_path):
    # The decode rule covers every module under src/, hot or not.
    package = tmp_path / "src" / "repro" / "anywhere"
    package.mkdir(parents=True)
    (package / "decoder.py").write_text(
        "boxed = Constant(table.constant_value(cid))\n"
    )
    (package / "shared.py").write_text(
        "boxed = table.constant_term(cid)\nvalue = table.constant_value(cid)\n"
    )
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "anywhere/decoder.py:1" in result.stdout
    assert "shared.py" not in result.stdout


def test_lint_flags_a_naive_evaluator_in_a_routed_module(tmp_path):
    # Routed modules answer queries through repro.plan only.
    modules = {
        "confidence/answers.py": "answers = evaluate_naive(query, world)\n",
        "confidence/worlds.py": (
            "answers = evaluate_naive(query, world)  # boxed-ok: reason\n"
        ),
        "service/scheduler.py": (
            "from repro.queries.evaluation import valuations\n"
        ),
        "service/server.py": "answers = evaluate(query, world)\n",
        "rewriting/executor.py": '"""Docstrings may say evaluate_naive( freely."""\n',
        "tableaux/query_answers.py": "x = 1\n",
    }
    for relative, text in modules.items():
        path = tmp_path / "src" / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "confidence/answers.py:1" in result.stdout
    assert "service/scheduler.py:1" in result.stdout
    assert "worlds.py" not in result.stdout  # waiver honoured
    assert "server.py" not in result.stdout  # plan evaluation is allowed
    assert "rewriting/executor.py" not in result.stdout  # docstring ignored
