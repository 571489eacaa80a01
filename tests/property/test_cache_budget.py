"""Property tests: a cache budget changes performance, never answers.

The byte budget makes every enrolled cache evict aggressively — a tiny
budget means essentially nothing stays warm, so every lookup path has to
rebuild what it would normally reuse. These tests pin the tentpole safety
property: evaluation under pathological eviction pressure is extensionally
identical to the backtracking oracle (plans), the no-cache engine
(confidence), and the single-store pipeline (shards).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache import cache_registry, set_cache_budget_mb
from repro.confidence import ConfidenceEngine
from repro.exceptions import InconsistentCollectionError
from repro.model import fact
from repro.plan import evaluate as plan_evaluate
from repro.queries import parse_rule
from repro.shard import PartitionSpec, evaluate_sharded

from tests.oracles import evaluate_backtracking
from tests.property.strategies import (
    VALUES,
    binary_databases,
    identity_collections,
)

QUERIES = [
    "V(x) <- E(x, y)",
    "V(x, y) <- E(x, y)",
    "V(x, z) <- E(x, y), E(y, z)",
    "V(x) <- E(x, y), E(y, x)",
    "V(x, y) <- E(x, y), Lt(x, y)",
    "V(y) <- E(1, y)",
    "V(x, w) <- E(x, y), E(y, z), E(z, w)",
]

#: ~1 KB: small enough that every store immediately evicts something.
TINY_MB = 0.001


@pytest.fixture(autouse=True)
def restore_budget():
    """Never leak a budget into the rest of the suite."""
    try:
        yield
    finally:
        set_cache_budget_mb(None)


@given(binary_databases(), st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_tiny_budget_plan_answers_match_backtracking(db, rule):
    query = parse_rule(rule)
    expected = evaluate_backtracking(query, db)
    try:
        set_cache_budget_mb(TINY_MB)
        assert plan_evaluate(query, db) == expected
    finally:
        set_cache_budget_mb(None)


@given(binary_databases(), st.sampled_from(QUERIES),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_tiny_budget_sharded_answers_match_single_store(db, rule, shards):
    query = parse_rule(rule)
    expected = evaluate_backtracking(query, db)
    try:
        set_cache_budget_mb(TINY_MB)
        assert evaluate_sharded(query, db, PartitionSpec(shards)) == expected
    finally:
        set_cache_budget_mb(None)


@given(identity_collections())
@settings(max_examples=15, deadline=None)
def test_tiny_budget_confidences_match_uncached_engine(collection):
    try:
        expected = ConfidenceEngine(
            collection, VALUES, cache_size=0
        ).confidences()
    except InconsistentCollectionError:
        assume(False)
    try:
        set_cache_budget_mb(TINY_MB)
        budgeted = ConfidenceEngine(collection, VALUES).confidences()
    finally:
        set_cache_budget_mb(None)
    assert budgeted == expected


def test_budget_keeps_total_bytes_bounded_across_worlds():
    registry = cache_registry()
    budget_bytes = 64 * 1024
    try:
        set_cache_budget_mb(budget_bytes / (1024 * 1024))
        query = parse_rule("V(x, z) <- E(x, y), E(y, z)")
        oracle = parse_rule("V(x, z) <- E(x, y), E(y, z)")
        from repro.model import GlobalDatabase

        for world in range(40):
            db = GlobalDatabase(
                [fact("E", world, i) for i in range(6)]
                + [fact("E", i, (i + world) % 5) for i in range(6)]
            )
            assert plan_evaluate(query, db) == evaluate_backtracking(
                oracle, db
            )
            assert registry.total_bytes() <= budget_bytes
    finally:
        set_cache_budget_mb(None)
