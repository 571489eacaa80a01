"""The statistics catalog: profiling, derived fact sets, edge cases."""

import weakref

from repro.core import IFactSet
from repro.model import GlobalDatabase, fact
from repro.plan.statistics import (
    TableStatistics,
    cached_statistics,
    statistics_counters,
    statistics_for,
)


def core_of(*facts):
    return GlobalDatabase(facts).core()


def fresh_profile(facts):
    """The statistics of a new fact set over the same IDs, whose views are
    built from scratch."""
    return TableStatistics.profile(IFactSet(facts.table, facts.ids()))


def assert_same_statistics(a: TableStatistics, b: TableStatistics):
    """Structural equality: cardinalities and per-column distinct counts."""
    assert a.total_facts == b.total_facts
    assert a.relations.keys() == b.relations.keys()
    for rid in a.relations:
        left, right = a.relations[rid], b.relations[rid]
        assert left.cardinality == right.cardinality
        assert len(left.columns) == len(right.columns)
        for cl, cr in zip(left.columns, right.columns):
            assert cl.distinct == cr.distinct


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
        assert relation.column(0).distinct == 1
        assert relation.column(1).distinct == relation.cardinality == 10

    def test_mixed_arities_count_per_position(self):
        # One relation name at two arities: position 1 counts only the
        # rows that have one.
        core = core_of(
            fact("R", "a"), fact("R", "b"), fact("R", "a", 1), fact("R", "c", 1)
        )
        stats = TableStatistics.profile(core)
        (relation,) = stats.relations.values()
        assert relation.cardinality == 4
        assert relation.column(0).distinct == 3
        assert relation.column(1).distinct == 1
        assert relation.column(2) is None


class TestIncremental:
    """A derived fact set patches its parent's views; its statistics, profiled
    afresh, describe it exactly."""

    def test_derive_matches_fresh_profile_after_removal(self):
        base_core = core_of(*(fact("R", f"a{i % 3}", i) for i in range(12)))
        statistics_for(base_core)
        removed = tuple(base_core)[:4]
        derived_core = base_core.without_ids(removed)
        assert_same_statistics(
            statistics_for(derived_core), fresh_profile(derived_core)
        )

    def test_derive_matches_fresh_profile_after_addition(self):
        base_core = core_of(fact("R", "a"), fact("R", "b"))
        extra_core = core_of(fact("R", "c"), fact("S", "x", "y"))
        statistics_for(base_core)
        grown_core = base_core.with_ids(tuple(extra_core))
        assert_same_statistics(
            statistics_for(grown_core), fresh_profile(grown_core)
        )

    def test_removing_every_fact_of_a_relation_drops_it(self):
        base_core = core_of(fact("R", "a"), fact("S", "b"))
        statistics_for(base_core)
        s_rid = base_core.table.find_relation("S")
        derived_core = base_core.without_ids(base_core.by_relation(s_rid))
        derived = statistics_for(derived_core)
        assert s_rid not in derived.relations
        assert s_rid not in derived_core.grouped()
        r_rid = base_core.table.find_relation("R")
        assert derived_core.relations() == (r_rid,)
        assert len(derived.relations) == 1

    def test_derive_does_not_mutate_the_base(self):
        base_core = core_of(fact("R", "a"), fact("R", "b"), fact("S", "c"))
        base = statistics_for(base_core)
        grouped = {rid: set(rows) for rid, rows in base_core.grouped().items()}
        base_core.relations()
        derived_core = base_core.without_ids(tuple(base_core)[:1]).with_ids(
            tuple(core_of(fact("R", "d"), fact("T", "e")))
        )
        assert len(derived_core) == 4
        assert {
            rid: set(rows) for rid, rows in base_core.grouped().items()
        } == grouped
        rids = base_core.relations()
        assert sum(len(base_core.by_relation(rid)) for rid in rids) == 3
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
        assert counter_deltas(before) == {"built": 1}

    def test_large_delta_falls_back_to_fresh_profile(self):
        # Every fact set is profiled afresh, whatever its delta.
        base_core = core_of(*(fact("R", "a", i) for i in range(20)))
        before = statistics_counters()
        statistics_for(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:18])
        derived = statistics_for(derived_core)
        assert counter_deltas(before) == {"built": 2}
        assert derived.cardinality(derived_core.relations()[0]) == 2

    def test_dropped_parent_falls_back_to_fresh_profile(self):
        # The child keeps a copy of its parent's grouped view, not the
        # parent: profiled after the parent is gone, it is still exact.
        base_core = core_of(*(fact("R", "a", i) for i in range(20)))
        statistics_for(base_core)
        derived_core = base_core.without_ids(tuple(base_core)[:2])
        ref = weakref.ref(base_core)
        del base_core
        assert ref() is None
        derived = statistics_for(derived_core)
        assert_same_statistics(derived, fresh_profile(derived_core))

    def test_statistics_after_snapshot_rollback(self):
        # Remove a delta, then roll it back: the rolled-back set is
        # value-equal to the base, and its statistics (profiled from a
        # grouped view patched twice) must still describe the base exactly.
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
