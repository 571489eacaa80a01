"""A version's plan state lives and dies with its fact sets.

Data sources (column indexes, scan rows) and statistics are kept on the
fact set they were built from, and nothing else holds them or the set. So
reference counting alone frees a superseded version the moment its last
holder drops it: no cache has to retire it and no garbage collection has
to find it.
"""

from __future__ import annotations

import gc
import weakref

import repro.plan
from repro.model import GlobalDatabase, fact
from repro.plan import data_source_for, statistics_for
from repro.queries import evaluate_naive, parse_rule
from repro.shard import PartitionSpec, ShardedDatabase, ShardExecutor
from repro.shard.planner import plan_shards

CHAIN = parse_rule("ans(x, z) <- Big(y, z), Mid(x, y), Tiny(x, w)")


def version():
    """A small copy of perfbench's ``cq_eval`` chain database."""
    return GlobalDatabase(
        [fact("Big", f"k{i % 5}", f"z{i}") for i in range(200)]
        + [fact("Mid", f"x{i % 20}", f"k{i % 5}") for i in range(40)]
        + [fact("Tiny", f"x{i}", f"w{i}") for i in range(3)]
    )


def evaluate_version(database):
    """Answer the chain on one store and on 4 shards; return weak
    references to every fact set, data source and statistics built."""
    single = repro.plan.evaluate(CHAIN, database)
    store = ShardedDatabase(database, PartitionSpec(4))
    assert ShardExecutor(store).answer(CHAIN) == single
    plan = plan_shards(CHAIN, store)
    assert plan.strategy in ("broadcast", "repartition")
    sets = [database.core(), *store.shards()]
    sets += [facts for _index, facts in plan.fragments]
    return (
        [weakref.ref(s) for s in sets]
        + [weakref.ref(data_source_for(s)) for s in sets]
        + [weakref.ref(statistics_for(s)) for s in sets]
    )


def test_dropped_version_is_freed_without_a_collection():
    gc.disable()
    try:
        refs = evaluate_version(version())
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) >= 3 * 9
    assert alive == []


def test_next_version_does_not_keep_its_parent():
    # A write derives the next version from its parent's core and views
    # but keeps no reference to the parent: once the caller drops an
    # evaluated parent, its fact sets, data sources and statistics go.
    database = version()
    gc.disable()
    try:
        refs = evaluate_version(database)
        child = database.without_facts(
            [fact("Big", "k0", "z0"), fact("Tiny", "x0", "w0")]
        ).with_facts([fact("Big", "k1", "z-new"), fact("Mid", "x9", "k9")])
        del database
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert alive == []
    assert repro.plan.evaluate(CHAIN, child) == evaluate_naive(CHAIN, child)
    stats = statistics_for(child.core())
    assert stats.total_facts == len(child) == len(version())
