"""Property tests: sharded scatter-gather agrees with both oracles.

For random conjunctive queries over random databases, any partition spec —
any shard count (including the degenerate N=1), any key positions — must
produce exactly the single-store plan executor's answers, which in turn
match the backtracking oracle. This is the shard subsystem's contract:
partitioning is an execution detail, never a semantics change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import evaluate as plan_evaluate
from repro.queries import parse_rule
from repro.shard import (
    PartitionSpec,
    ShardedDatabase,
    ShardExecutor,
    canonical_order,
    plan_shards,
)

from tests.oracles import evaluate_backtracking
from tests.property.strategies import binary_databases

QUERIES = [
    "V(x) <- E(x, y)",
    "V(x, y) <- E(x, y)",
    "V(x, z) <- E(x, y), E(y, z)",
    "V(x) <- E(x, x)",
    "V(x) <- E(x, y), E(y, x)",
    "V(y) <- E(1, y)",
    "V(x, z) <- E(x, y), F(z, y)",
    "V(x, z) <- E(x, y), F(z, w)",
    "V(x, w) <- E(x, y), E(y, z), E(z, w)",
    "V() <- E(1, 2)",
]


def partition_specs():
    return st.builds(
        PartitionSpec,
        st.integers(min_value=1, max_value=5),
        st.fixed_dictionaries(
            {},
            optional={
                "E": st.integers(min_value=0, max_value=2),
                "F": st.integers(min_value=0, max_value=2),
            },
        ),
        st.integers(min_value=0, max_value=1),
    )


@given(
    binary_databases(relations=("E", "F")),
    st.sampled_from(QUERIES),
    partition_specs(),
)
@settings(max_examples=120, deadline=None)
def test_sharded_matches_plan_and_backtracking(db, rule, spec):
    query = parse_rule(rule)
    expected = plan_evaluate(query, db)
    assert evaluate_backtracking(query, db) == expected
    executor = ShardExecutor(ShardedDatabase(db, spec))
    assert executor.answer(query) == expected


@given(
    binary_databases(relations=("E", "F")),
    st.sampled_from(QUERIES),
    partition_specs(),
    partition_specs(),
)
@settings(max_examples=60, deadline=None)
def test_canonical_order_is_layout_independent(db, rule, spec_a, spec_b):
    query = parse_rule(rule)
    first = ShardExecutor(ShardedDatabase(db, spec_a)).answer_ordered(query)
    second = ShardExecutor(ShardedDatabase(db, spec_b)).answer_ordered(query)
    assert first == second == canonical_order(plan_evaluate(query, db))


@given(binary_databases(relations=("E", "F")), partition_specs())
@settings(max_examples=60, deadline=None)
def test_fragments_cover_without_reading_values(db, spec):
    # Structural soundness of every chosen layout: for single-atom plans,
    # fragments partition the store; pruned plans skip all but one shard.
    query = parse_rule("V(x, y) <- E(x, y)")
    plan = plan_shards(query, ShardedDatabase(db, spec))
    total = sum(len(facts) for _i, facts in plan.fragments)
    if plan.strategy in ("single", "scatter", "global"):
        assert total == len(db.core())
    assert plan.shards_executed + plan.shards_pruned <= plan.shards_total
