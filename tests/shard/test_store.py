"""ShardedDatabase: base shards, broadcast/repartition layouts, lifecycle."""

import weakref

import pytest

from repro.exceptions import ModelError
from repro.model import GlobalDatabase, fact
from repro.plan import data_source_for, statistics_for
from repro.shard import PartitionSpec, ShardedDatabase, stable_bucket


def make_db():
    return GlobalDatabase(
        [fact("E", i, i % 4) for i in range(24)]
        + [fact("F", i % 3, "t") for i in range(6)]
    )


def make_store(n=4, **kw):
    return ShardedDatabase(make_db(), PartitionSpec(n, **kw))


class TestBasics:
    def test_requires_spec(self):
        with pytest.raises(ModelError):
            ShardedDatabase(make_db(), 4)

    def test_union_core_is_the_database_core(self):
        store = make_store()
        assert store.union_core() is store.database.core()

    def test_shards_cover_and_are_cached(self):
        store = make_store(3)
        shards = store.shards()
        assert store.shards() is shards
        assert sum(store.shard_sizes()) == len(store.union_core())
        union = frozenset().union(*(s.ids() for s in shards))
        assert union == store.union_core().ids()

    def test_repr(self):
        assert "4 shards" in repr(make_store(4))


class TestBroadcast:
    def test_fragment_shape(self):
        store = make_store(4)
        table = store.union_core().table
        e_rid = table.relation("E")
        fragments = store.broadcast_fragments(e_rid)
        assert len(fragments) == 4
        big = store.union_core().by_relation(e_rid)
        rest = store.union_core().ids() - big
        for b, fragment in enumerate(fragments):
            # fragment b = big-relation slice of shard b + everything else
            assert fragment.ids() & rest == rest
            assert fragment.ids() & big == store.shards()[b].ids() & big
        # every big fact appears in exactly one fragment
        placed = [fragment.ids() & big for fragment in fragments]
        assert frozenset().union(*placed) == big
        assert sum(len(p) for p in placed) == len(big)

    def test_cached_per_relation(self):
        store = make_store(2)
        rid = store.union_core().table.relation("E")
        assert store.broadcast_fragments(rid) is store.broadcast_fragments(rid)


class TestRepartition:
    def test_rebucketed_on_listed_positions(self):
        store = make_store(4)
        table = store.union_core().table
        e_rid = table.relation("E")
        f_rid = table.relation("F")
        fragments = store.repartition_fragments({e_rid: (1,), f_rid: (0,)})
        assert len(fragments) == 4
        for fid in store.union_core().by_relation(e_rid):
            value = table.constant_value(table.fact_tuple(fid)[2])
            assert fid in fragments[stable_bucket(value, 4)]
        for fid in store.union_core().by_relation(f_rid):
            value = table.constant_value(table.fact_tuple(fid)[1])
            assert fid in fragments[stable_bucket(value, 4)]

    def test_unlisted_relations_are_dropped(self):
        store = make_store(3)
        table = store.union_core().table
        e_rid = table.relation("E")
        f_rid = table.relation("F")
        fragments = store.repartition_fragments({e_rid: (0,)})
        f_ids = store.union_core().by_relation(f_rid)
        for fragment in fragments:
            assert not (fragment.ids() & f_ids)

    def test_self_join_positions_duplicate(self):
        store = make_store(4)
        table = store.union_core().table
        e_rid = table.relation("E")
        fragments = store.repartition_fragments({e_rid: (0, 1)})
        for fid in store.union_core().by_relation(e_rid):
            t = table.fact_tuple(fid)
            for pos in (0, 1):
                value = table.constant_value(t[1 + pos])
                assert fid in fragments[stable_bucket(value, 4)]

    def test_cached_by_canonical_key(self):
        store = make_store(2)
        rid = store.union_core().table.relation("E")
        a = store.repartition_fragments({rid: (1, 0)})
        b = store.repartition_fragments({rid: (0, 1, 1)})
        assert a is b


class TestLifecycle:
    def test_fragments_are_freed_with_the_store(self):
        # A store's fragments and the plan state built on them live only
        # as long as the store: dropping it frees them without a
        # collection.
        store = make_store(3)
        rid = store.union_core().table.relation("E")
        fragments = (
            *store.shards(),
            *store.broadcast_fragments(rid),
            *store.repartition_fragments({rid: (0,)}),
        )
        refs = [weakref.ref(f) for f in fragments]
        refs += [weakref.ref(data_source_for(f)) for f in fragments]
        refs += [weakref.ref(statistics_for(f)) for f in fragments]
        del store, fragments
        assert not any(ref() for ref in refs)

    def test_layout_counters(self):
        store = make_store(2)
        assert store.layout_counters() == {
            "shards": 2, "base_built": 0,
            "broadcast_layouts": 0, "repartition_layouts": 0,
        }
        store.shards()
        rid = store.union_core().table.relation("F")
        store.broadcast_fragments(rid)
        counters = store.layout_counters()
        assert counters["base_built"] == 2
        assert counters["broadcast_layouts"] == 1
