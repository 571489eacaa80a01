"""Property tests: the optimizer never changes answers.

For random multi-relation databases and join queries, the
statistics-optimized plan, the static plan, the backtracking join, and the
naive evaluator must agree exactly — and EXPLAIN ANALYZE's instrumented
interpreter must return the same rows as the hot path it measures.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import global_table
from repro.model import GlobalDatabase
from repro.plan import (
    compile_query,
    data_source_for,
    execute_plan,
    plan_params,
    statistics_for,
)
from repro.plan.analyze import analyze_plan
from repro.plan.statistics import TableStatistics
from repro.queries import evaluate_naive, parse_rule

from tests.oracles import evaluate_backtracking
from tests.property.strategies import binary_databases

JOIN_QUERIES = [
    "V(x, z) <- E(x, y), F(y, z)",
    "V(x) <- E(x, y), F(y, x)",
    "V(x, y) <- E(x, y), E(y, x)",
    "V(x, w) <- E(x, y), F(y, z), G(z, w)",
    "V(x) <- E(x, x), F(x, y)",
    "V(y) <- E(1, y), F(y, z)",
    "V(x, z) <- E(x, y), F(y, z), E(z, x)",
]


def to_tuples(atoms):
    return {tuple(c.value for c in a.args) for a in atoms}


def plan_tuples(plan, query, source, table):
    constant_value = table.constant_value
    return {
        tuple(constant_value(c) for c in row)
        for row in execute_plan(plan, source, plan_params(query, table))
    }


@given(
    binary_databases(relations=("E", "F", "G"), values=(1, 2, 3, 4)),
    st.sampled_from(JOIN_QUERIES),
)
@settings(max_examples=80, deadline=None)
def test_optimized_matches_backtracking_and_naive(db, rule):
    query = parse_rule(rule)
    table = global_table()
    core = db.core()
    expected = to_tuples(evaluate_naive(query, db))
    assert to_tuples(evaluate_backtracking(query, db)) == expected

    source = data_source_for(core)
    static = compile_query(query, table)
    optimized = compile_query(query, table, stats=statistics_for(core))
    assert plan_tuples(static, query, source, table) == expected
    assert plan_tuples(optimized, query, source, table) == expected


@given(
    binary_databases(relations=("E", "F"), values=(1, 2, 3)),
    st.sampled_from(JOIN_QUERIES[:3]),
)
@settings(max_examples=60, deadline=None)
def test_analyze_agrees_with_execution(db, rule):
    query = parse_rule(rule)
    table = global_table()
    core = db.core()
    plan = compile_query(query, table, stats=statistics_for(core))
    source = data_source_for(core)
    rows, actuals = analyze_plan(plan, source)
    assert rows == execute_plan(plan, source)
    if plan.optimizer_info is not None:
        assert actuals[id(plan.root)] == len(rows)


@given(
    binary_databases(relations=("E", "F"), values=(1, 2, 3, 4)),
    binary_databases(relations=("E", "G"), values=(3, 4, 5)),
)
@settings(max_examples=60, deadline=None)
def test_derived_version_statistics_match_fresh_profile(db, extra):
    # The parent's core and views are built, so the next version's core
    # and grouped view are derived from them.
    statistics_for(db.core())
    removed = sorted(db.facts())[: max(1, len(db) // 4)]
    child = db.without_facts(removed).with_facts(extra.facts())
    derived = statistics_for(child.core())
    fresh = TableStatistics.profile(GlobalDatabase(child.facts()).core())
    assert derived.total_facts == fresh.total_facts == len(child)
    assert derived.relations.keys() == fresh.relations.keys()
    for rid, stats in fresh.relations.items():
        assert derived.relations[rid].cardinality == stats.cardinality
        assert [c.distinct for c in derived.relations[rid].columns] == [
            c.distinct for c in stats.columns
        ]
