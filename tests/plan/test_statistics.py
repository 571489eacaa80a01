"""The statistics catalog: profiling, incremental maintenance, edge cases."""

import weakref

from repro.model import GlobalDatabase, fact
from repro.plan.statistics import (
    RelationStats,
    TableStatistics,
    cached_statistics,
    statistics_counters,
    statistics_for,
)


def core_of(*facts):
    return GlobalDatabase(facts).core()


def assert_same_statistics(a: TableStatistics, b: TableStatistics):
    """Structural equality: cardinalities and per-column count maps."""
    assert a.total_facts == b.total_facts
    assert a.relations.keys() == b.relations.keys()
    for rid in a.relations:
        left, right = a.relations[rid], b.relations[rid]
        assert left.cardinality == right.cardinality
        assert len(left.columns) == len(right.columns)
        for cl, cr in zip(left.columns, right.columns):
            assert cl.counts == cr.counts


class TestProfile:
    def test_empty_fact_set(self):
        stats = TableStatistics.profile(core_of())
        assert stats.total_facts == 0
        assert stats.relations == {}
        assert stats.cardinality(0) == 0

    def test_unknown_relation_is_exactly_zero(self):
        core = core_of(fact("R", "a"))
        stats = TableStatistics.profile(core)
        missing_rid = max(stats.relations) + 1
        assert stats.relation(missing_rid) is None
        assert stats.cardinality(missing_rid) == 0

    def test_cardinality_and_distincts(self):
        core = core_of(
            fact("R", "a", 1), fact("R", "a", 2), fact("R", "b", 3)
        )
        stats = TableStatistics.profile(core)
        (relation,) = stats.relations.values()
        assert relation.cardinality == 3
        assert relation.column(0).distinct == 2
        assert relation.column(1).distinct == 3
        assert relation.column(2) is None

    def test_all_duplicate_column(self):
        # Every row carries the same value in position 0: one distinct
        # value that every row holds.
        core = core_of(*(fact("R", "same", i) for i in range(10)))
        stats = TableStatistics.profile(core)
        (relation,) = stats.relations.values()
        column = relation.column(0)
        assert column.distinct == 1
        ((_cid, count),) = column.most_common()
        assert count == relation.cardinality == 10

    def test_mcv_sketch_ranks_heavy_hitters_first(self):
        core = core_of(
            *(fact("R", "hot", i) for i in range(8)),
            fact("R", "cold", 100),
        )
        stats = TableStatistics.profile(core)
        (relation,) = stats.relations.values()
        top = relation.column(0).most_common(1)
        assert top[0][1] == 8
        rendered = relation.column(0).explain_mcv(core_of().table)
        assert "'hot'×8" in rendered


class TestIncremental:
    def test_derive_matches_fresh_profile_after_removal(self):
        base_core = core_of(*(fact("R", f"a{i % 3}", i) for i in range(12)))
        base = TableStatistics.profile(base_core)
        removed = tuple(base_core)[:4]
        derived_core = base_core.without_ids(removed)
        hint = derived_core.derivation()
        derived = TableStatistics.derive(
            base, derived_core, hint.added, hint.removed
        )
        assert derived.incremental
        assert_same_statistics(derived, TableStatistics.profile(derived_core))

    def test_derive_matches_fresh_profile_after_addition(self):
        base_core = core_of(fact("R", "a"), fact("R", "b"))
        extra_core = core_of(fact("R", "c"), fact("S", "x", "y"))
        base = TableStatistics.profile(base_core)
        grown_core = base_core.with_ids(tuple(extra_core))
        hint = grown_core.derivation()
        grown = TableStatistics.derive(
            base, grown_core, hint.added, hint.removed
        )
        assert_same_statistics(grown, TableStatistics.profile(grown_core))

    def test_removing_every_fact_of_a_relation_drops_it(self):
        base_core = core_of(fact("R", "a"), fact("S", "b"))
        base = TableStatistics.profile(base_core)
        s_ids = [
            fid for fid in base_core
            if base_core.table.fact_tuple(fid)[1:]
            == (base_core.table.constant("b"),)
        ]
        derived_core = base_core.without_ids(s_ids)
        hint = derived_core.derivation()
        derived = TableStatistics.derive(
            base, derived_core, hint.added, hint.removed
        )
        assert_same_statistics(derived, TableStatistics.profile(derived_core))
        assert len(derived.relations) == 1

    def test_derive_does_not_mutate_the_base(self):
        base_core = core_of(fact("R", "a"), fact("R", "b"))
        base = TableStatistics.profile(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:1])
        hint = derived_core.derivation()
        TableStatistics.derive(base, derived_core, hint.added, hint.removed)
        assert_same_statistics(base, TableStatistics.profile(base_core))


def counter_deltas(before):
    after = statistics_counters()
    return {name: after[name] - before[name] for name in after}


class TestCatalog:
    def test_content_addressed_cache_hit(self):
        before = statistics_counters()
        core = core_of(fact("R", "a"))
        first = statistics_for(core)
        assert statistics_for(core) is first
        assert counter_deltas(before) == {
            "built": 1, "profiled": 1, "incremental": 0,
        }

    def test_derived_set_maintains_incrementally(self):
        base_core = core_of(*(fact("R", "a", i) for i in range(20)))
        before = statistics_counters()
        statistics_for(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:2])
        derived = statistics_for(derived_core)
        counters = counter_deltas(before)
        assert derived.incremental
        assert counters["incremental"] == 1
        assert counters["profiled"] == 1
        assert_same_statistics(derived, TableStatistics.profile(derived_core))

    def test_large_delta_falls_back_to_fresh_profile(self):
        base_core = core_of(*(fact("R", "a", i) for i in range(20)))
        before = statistics_counters()
        statistics_for(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:18])
        derived = statistics_for(derived_core)
        assert not derived.incremental
        assert counter_deltas(before)["profiled"] == 2

    def test_dropped_parent_falls_back_to_fresh_profile(self):
        base_core = core_of(*(fact("R", "a", i) for i in range(20)))
        statistics_for(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:2])
        del base_core
        derived = statistics_for(derived_core)
        assert not derived.incremental
        assert_same_statistics(derived, TableStatistics.profile(derived_core))

    def test_statistics_after_snapshot_rollback(self):
        # Remove a delta, then roll it back: the rolled-back set is
        # value-equal to the base, and its statistics (derived from the
        # removal's) must still describe the base exactly.
        base_core = core_of(*(fact("R", f"v{i}", i) for i in range(10)))
        statistics_for(base_core)
        removed = tuple(base_core)[:3]
        derived_core = base_core.without_ids(removed)
        statistics_for(derived_core)
        rolled_back = derived_core.with_ids(removed)
        assert rolled_back == base_core
        assert_same_statistics(
            statistics_for(rolled_back), TableStatistics.profile(base_core)
        )

    def test_discard_statistics(self):
        # A fact set's statistics are discarded with it: nothing else
        # holds them.
        core = core_of(fact("R", "a"))
        assert cached_statistics(core) is None
        ref = weakref.ref(statistics_for(core))
        assert cached_statistics(core) is ref()
        del core
        assert ref() is None
