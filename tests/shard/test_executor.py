"""Scatter-gather execution: equivalence and counters."""

import pytest

from repro.model import GlobalDatabase, fact
from repro.plan import evaluate as plan_evaluate
from repro.queries import parse_rule
from repro.shard import (
    PartitionSpec,
    ShardExecutor,
    ShardedDatabase,
    canonical_order,
    evaluate_sharded,
    reset_shard_stats,
    shard_stats,
)

QUERIES = [
    "V(x, y) <- E(x, y)",          # scatter
    "V(y) <- E(1, y)",             # pruned
    "V(x, z) <- E(x, y), E(y, z)", # repartition
    "V(x, z) <- E(x, y), F(z, w)", # broadcast
    "V(x) <- E(x, x)",             # scatter, self-loop filter
    "V() <- E(1, 2)",              # pruned, boolean
    "V(x, y) <- E(x, y), Lt(x, y)",  # builtin
]


def make_db():
    return GlobalDatabase(
        [fact("E", i % 5, (i * 3) % 7) for i in range(30)]
        + [fact("F", i % 3, "t") for i in range(6)]
    )


def executor_for(db, n):
    return ShardExecutor(ShardedDatabase(db, PartitionSpec(n)))


class TestEquivalence:
    @pytest.mark.parametrize("rule", QUERIES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_matches_single_store_pipeline(self, rule, shards):
        db = make_db()
        query = parse_rule(rule)
        expected = plan_evaluate(query, db)
        assert executor_for(db, shards).answer(query) == expected

    def test_answer_ordered_is_canonical(self):
        db = make_db()
        query = parse_rule("V(x, y) <- E(x, y)")
        ex = executor_for(db, 3)
        assert ex.answer_ordered(query) == canonical_order(ex.answer(query))

    def test_evaluate_sharded_one_shot(self):
        db = make_db()
        query = parse_rule("V(y) <- E(1, y)")
        assert evaluate_sharded(query, db, PartitionSpec(4)) == plan_evaluate(
            query, db
        )

    def test_empty_database(self):
        db = GlobalDatabase([])
        query = parse_rule("V(x) <- E(x, y)")
        assert executor_for(db, 4).answer(query) == frozenset()


class TestPointLookupStore:
    """The E20 workload at a small size: first-sight point lookups over
    ``R(k, v)`` pruned to one shard, and the scatter scan, answer exactly
    as the single store does."""

    M = 400

    @pytest.fixture(scope="class")
    def store(self):
        return GlobalDatabase(
            fact("R", f"k{i % 60}", f"v{i}") for i in range(self.M)
        )

    @pytest.mark.parametrize("shards", [4, 8])
    def test_pruned_lookups_match_single_store(self, store, shards):
        executor = executor_for(store, shards)
        for i in range(15):
            query = parse_rule(f"ans(v) <- R('k{i}', v)")
            expected = plan_evaluate(query, store)
            assert len(expected) == self.M // 60 + (i < self.M % 60)
            assert executor.answer(query) == expected
        assert executor.counters["strategy_pruned"] == 15
        assert executor.counters["shards_pruned"] == 15 * (shards - 1)

    def test_scatter_scan_matches_single_store(self, store):
        executor = executor_for(store, 4)
        query = parse_rule("ans(k, v) <- R(k, v)")
        answers = executor.answer(query)
        assert answers == plan_evaluate(query, store)
        assert len(answers) == self.M
        assert executor.counters["strategy_scatter"] == 1


class TestCounters:
    def test_plan_counters(self):
        reset_shard_stats()
        ex = executor_for(make_db(), 4)
        ex.answer(parse_rule("V(y) <- E(1, y)"))
        ex.answer(parse_rule("V(x, y) <- E(x, y)"))
        assert ex.counters["queries"] == 2
        assert ex.counters["shards_pruned"] == 3
        assert ex.counters["fragments_executed"] == 1 + 4
        assert ex.counters["strategy_pruned"] == 1
        assert ex.counters["strategy_scatter"] == 1
        # process-wide mirror sees the same deltas
        assert shard_stats()["queries"] >= 2

    def test_stats_includes_layout(self):
        ex = executor_for(make_db(), 2)
        ex.answer(parse_rule("V(x, y) <- E(x, y)"))
        stats = ex.stats()
        assert stats["layout"]["base_built"] == 2
