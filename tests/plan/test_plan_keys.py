"""The cached plan key's lifetime.

A conjunctive query renders its plan key and parameter values once and
keeps them in a slot. The slot names no symbol ID; it is re-rendered
after its builtin registry changes; it is not pickled; and the plan's
runtime feedback behind it is keyed by scan shape, so one plan serving
many bindings stays bounded.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core import global_table
from repro.model import GlobalDatabase, fact
from repro.plan import data_source_for, plan_for, plan_key
from repro.plan import evaluate as plan_evaluate
from repro.queries import (
    Builtin,
    BuiltinRegistry,
    evaluate_naive,
    parse_rule,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def lt(x, y):
    return x < y


def gt(x, y):
    return x > y


def test_registering_a_builtin_re_renders_the_key():
    registry = BuiltinRegistry([Builtin("Lt", 2, lt)])
    query = parse_rule("ans(x) <- N(x), Lt(x, 3), Odd(x)", registry)
    database = GlobalDatabase(
        [fact("N", i) for i in range(6)] + [fact("Odd", 1), fact("Odd", 4)]
    )
    before = plan_key(query, global_table())
    assert plan_evaluate(query, database) == evaluate_naive(query, database)
    # Odd turns from a stored relation into a builtin, and Lt changes.
    registry.register(Builtin("Odd", 1, lambda x: x % 2 == 1))
    registry.register(Builtin("Lt", 2, gt))
    assert plan_key(query, global_table()) != before
    assert plan_evaluate(query, database) == evaluate_naive(query, database)
    assert plan_evaluate(query, database) == {fact("ans", 5)}


def test_a_re_registered_builtin_leaves_other_registries_alone():
    # Two registries around the same function share one plan; replacing
    # the function in one of them must not change the other's answers.
    mine = BuiltinRegistry([Builtin("Lt", 2, lt)])
    theirs = BuiltinRegistry([Builtin("Lt", 2, lt)])
    rule = "ans(x) <- N(x), Lt(x, 2)"
    database = GlobalDatabase([fact("N", i) for i in range(4)])
    assert plan_evaluate(parse_rule(rule, mine), database) == {
        fact("ans", 0), fact("ans", 1),
    }
    mine.register(Builtin("Lt", 2, gt))
    assert plan_evaluate(parse_rule(rule, theirs), database) == {
        fact("ans", 0), fact("ans", 1),
    }
    assert plan_evaluate(parse_rule(rule, mine), database) == {fact("ans", 3)}


def test_the_slot_is_not_pickled():
    query = parse_rule("ans(v) <- R('k', v)")
    key = plan_key(query, global_table())
    loaded = pickle.loads(pickle.dumps(query))
    assert loaded._plan_shape is None
    assert plan_key(loaded, global_table()) == key


LOAD = """
import pickle, sys
from repro.plan import plan_for, plan_key
from repro.core import global_table
from repro.queries import parse_rule
loaded = pickle.loads(sys.stdin.buffer.read())
twin = parse_rule("ans(v) <- R('k', v), Lt(v, 3)")
key = plan_key(loaded, global_table())
assert key == plan_key(twin, global_table())
assert hash(key) == hash(plan_key(twin, global_table()))
assert plan_for(loaded) is plan_for(twin)
print("ok")
"""


def test_an_unpickled_query_renders_its_key_under_the_loading_hash_seed():
    query = parse_rule("ans(v) <- R('k', v), Lt(v, 3)")
    plan_key(query, global_table())  # fill the slot before pickling
    env = dict(os.environ, PYTHONHASHSEED="2", PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", LOAD], input=pickle.dumps(query), env=env,
        capture_output=True, check=True,
    )
    assert result.stdout.strip() == b"ok"


def test_feedback_is_kept_per_scan_not_per_binding():
    database = GlobalDatabase(
        [fact("Pk", f"k{i % 100}", f"v{i}") for i in range(1000)]
        + [fact("Sv", f"v{i}") for i in range(0, 1000, 7)]
    )
    core = database.core()
    for i in range(1000):
        query = parse_rule(f"ans(v) <- Pk('k{i}', v), Sv(v)")
        expected = {
            fact("ans", f"v{j}") for j in range(i, 1000, 100) if j % 7 == 0
        } if i < 100 else set()
        assert plan_evaluate(query, database) == expected
    plan = plan_for(query, facts=core)
    assert plan.feedback is not None and plan.feedback.checks
    assert len(plan.feedback.observed) <= len(plan.scan_nodes) == 2
    # The data source keeps the rows of each binding it read; the 900 keys
    # no fact holds bind nothing and read nothing.
    scans, _indexes = data_source_for(core).cached_artifacts()
    assert scans >= 100
