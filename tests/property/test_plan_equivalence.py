"""Property tests: the compiled-plan executor agrees with both oracles.

Random conjunctive queries over random databases must produce identical
answers along all three routes — compiled plan, backtracking join, naive
cross product — and alpha-renamed queries must share one plan-cache entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import cq_to_algebra, rows_to_facts
from repro.confidence.engine.memo import LRUMemo
from repro.core.symbols import SymbolTable
from repro.plan import evaluate as plan_evaluate
from repro.plan import evaluate_rows, plan_for, plan_key
from repro.queries import evaluate_naive, parse_rule

from tests.oracles import evaluate_backtracking
from tests.property.strategies import binary_databases

QUERIES = [
    "V(x) <- E(x, y)",
    "V(y) <- E(x, y)",
    "V(x, y) <- E(x, y)",
    "V(x, z) <- E(x, y), E(y, z)",
    "V(x) <- E(x, x)",
    "V(x) <- E(x, y), E(y, x)",
    "V(x, y) <- E(x, y), Lt(x, y)",
    "V(y) <- E(1, y)",
    "V(x, w) <- E(x, y), E(y, z), E(z, w)",
    "V(x, 7) <- E(x, x)",
    "V() <- E(1, 2)",
    # Repeated head columns: projected through one itemgetter pick.
    "V(x, x) <- E(x, y)",
    "V(y, x, y) <- E(x, y)",
]

VARIABLE_POOLS = [
    ("x", "y", "z", "w"),
    ("a", "b", "c", "d"),
    ("p", "q", "r", "s"),
]


def rename(rule, pool):
    out = rule
    for old, new in zip(("x", "y", "z", "w"), pool):
        out = out.replace(old, new.upper() + "_tmp")
    for new in pool:
        out = out.replace(new.upper() + "_tmp", new)
    return out


@given(binary_databases(), st.sampled_from(QUERIES))
@settings(max_examples=80, deadline=None)
def test_plan_matches_backtracking_and_naive(db, rule):
    q = parse_rule(rule)
    expected = evaluate_naive(q, db)
    assert plan_evaluate(q, db) == expected
    assert evaluate_backtracking(q, db) == expected


@given(binary_databases(), st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_algebra_plan_matches_boxed_interpreter(db, rule):
    q = parse_rule(rule)
    tree = cq_to_algebra(q)
    assert rows_to_facts(evaluate_rows(tree, db), "V") == rows_to_facts(
        tree.evaluate_boxed(db), "V"
    )


@given(st.sampled_from(QUERIES), st.sampled_from(VARIABLE_POOLS))
@settings(max_examples=60, deadline=None)
def test_alpha_renamed_queries_share_a_plan_key(rule, pool):
    table = SymbolTable()
    original = parse_rule(rule)
    renamed = parse_rule(rename(rule, pool))
    assert plan_key(original, table) == plan_key(renamed, table)


@given(st.sampled_from(QUERIES), st.sampled_from(VARIABLE_POOLS))
@settings(max_examples=40, deadline=None)
def test_alpha_renamed_queries_hit_the_cache(rule, pool):
    table = SymbolTable()
    cache = LRUMemo(maxsize=16)
    first = plan_for(parse_rule(rule), cache=cache, table=table)
    second = plan_for(parse_rule(rename(rule, pool)), cache=cache, table=table)
    assert first is second
    stats = cache.stats()
    assert stats.misses == 1 and stats.hits == 1
