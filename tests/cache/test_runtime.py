"""The cache runtime: budget, invalidation, stats, and lock discipline.

Covers the tentpole guarantees of ``repro.cache``: the global byte budget
evicts the globally least-recent entry across enrolled caches (not per
cache), key-match invalidation retires exactly the named entries, the
stats tree aggregates uniformly, and concurrent stores against an active
budget neither deadlock nor corrupt accounting.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import cache_registry
from repro.cache.runtime import (
    CacheRegistry,
    CacheStats,
    LRUMemo,
    default_sizeof,
    sizeof_estimate,
)


def make_registry_pair(budget=None, cost_a=100, cost_b=100):
    registry = CacheRegistry(budget)
    a = registry.enroll(LRUMemo(name="a", sizeof=lambda k, v: cost_a))
    b = registry.enroll(LRUMemo(name="b", sizeof=lambda k, v: cost_b))
    return registry, a, b


class TestLRUMemo:
    def test_lookup_store_and_counters(self):
        memo = LRUMemo(2, sizeof=lambda k, v: 10)
        assert memo.lookup("k") == (False, None)
        memo.store("k", 1)
        assert memo.lookup("k") == (True, 1)
        memo.store("l", 2)
        memo.store("m", 3)  # evicts "k" (capacity 2)
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.size == 2 and stats.bytes == 20
        assert "k" not in memo and "m" in memo

    def test_store_replaces_without_double_counting_bytes(self):
        memo = LRUMemo(4, sizeof=lambda k, v: v)
        memo.store("k", 100)
        memo.store("k", 7)
        assert memo.bytes == 7
        assert len(memo) == 1

    def test_invalidate_by_tag_and_by_key(self):
        # A tag matches the entry it keys; unknown and unhashable tags
        # match nothing.
        memo = LRUMemo(16)
        memo.store("layout", "x")
        memo.store("other", "y")
        dropped = memo.invalidate_tags(["layout", "missing", ["unhashable"]])
        assert dropped == 1
        assert "other" in memo and "layout" not in memo
        assert memo.stats().invalidations == 1

    def test_tag_index_survives_eviction_and_replacement(self):
        # Invalidation after an eviction and a replacement drops exactly
        # the resident entries it names, and bytes stay consistent.
        memo = LRUMemo(2, sizeof=lambda k, v: 10)
        memo.store("a", 1)
        memo.store("b", 2)
        memo.store("c", 3)  # evicts "a"
        memo.store("b", 4)  # replaces "b" without double counting
        assert memo.invalidate_tags(["a"]) == 0
        assert memo.invalidate_tags(["b"]) == 1
        assert len(memo) == 1 and "c" in memo
        assert memo.bytes == 10

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUMemo(0)

    def test_cache_stats_backward_compatible_shape(self):
        # Pre-runtime code built 5-field CacheStats; the extended tuple
        # must keep those positions and default the new fields.
        stats = CacheStats(hits=1, misses=1, evictions=0, size=1, maxsize=4)
        assert stats.bytes == 0 and stats.invalidations == 0
        assert stats.hit_rate == 0.5
        assert tuple(stats)[:5] == (1, 1, 0, 1, 4)

    def test_sizeof_estimate_is_deterministic_and_positive(self):
        value = {"k": [1, 2, 3], "l": ("a", "b")}
        assert sizeof_estimate(value) == sizeof_estimate(value)
        assert default_sizeof("key", value) > 0


class TestCacheRegistryBudget:
    def test_no_budget_means_no_eviction_beyond_maxsize(self):
        registry, a, _b = make_registry_pair(budget=None)
        for i in range(100):
            a.store(i, i)
        assert len(a) == 100
        assert a.stats().evictions == 0

    def test_budget_bounds_total_bytes(self):
        registry, a, b = make_registry_pair(budget=500)
        for i in range(10):
            a.store(("a", i), i)
            b.store(("b", i), i)
        assert registry.total_bytes() <= 500

    def test_eviction_is_globally_least_recent_across_caches(self):
        registry, a, b = make_registry_pair(budget=10_000)
        a.store("a-old", 1)
        b.store("b-newer", 2)
        a.store("a-newest", 3)
        registry.set_budget(250)  # room for two 100-byte entries
        assert "a-old" not in a  # globally oldest went first
        assert "b-newer" in b and "a-newest" in a

    def test_hit_refreshes_global_recency(self):
        registry, a, b = make_registry_pair(budget=10_000)
        a.store("a1", 1)
        b.store("b1", 2)
        assert a.lookup("a1") == (True, 1)  # refresh: b1 is now oldest
        registry.set_budget(150)
        assert "a1" in a and "b1" not in b

    def test_heavy_cold_entry_yields_to_light_hot_ones(self):
        registry = CacheRegistry()
        heavy = registry.enroll(LRUMemo(name="heavy", sizeof=lambda k, v: 1000))
        light = registry.enroll(LRUMemo(name="light", sizeof=lambda k, v: 10))
        heavy.store("big", 1)
        for i in range(5):
            light.store(i, i)
        registry.set_budget(100)
        assert len(heavy) == 0  # one eviction freed 1000 bytes
        assert len(light) == 5

    def test_budget_zero_evicts_everything(self):
        registry, a, b = make_registry_pair()
        a.store("x", 1)
        b.store("y", 2)
        registry.set_budget(0)
        assert len(a) == 0 and len(b) == 0
        assert registry.total_bytes() == 0

    def test_clearing_budget_restores_unbounded_behavior(self):
        registry, a, _b = make_registry_pair(budget=100)
        registry.set_budget(None)
        for i in range(50):
            a.store(i, i)
        assert len(a) == 50

    def test_negative_budget_rejected(self):
        registry, _a, _b = make_registry_pair()
        with pytest.raises(ValueError):
            registry.set_budget(-1)


class TestCacheRegistryBus:
    def test_enrollment_requires_unique_names(self):
        registry = CacheRegistry()
        registry.enroll(LRUMemo(name="dup"))
        with pytest.raises(ValueError):
            registry.enroll(LRUMemo(name="dup"))
        with pytest.raises(ValueError):
            registry.enroll(LRUMemo())  # anonymous

    def test_invalidate_tags_reports_per_cache_counts(self):
        registry, a, b = make_registry_pair()
        a.store("k1", 1)
        a.store("w", 2)
        b.store("w", 3)
        b.store("other", 4)
        assert registry.invalidate_tags(["w", "k1"]) == {"a": 2, "b": 1}
        assert registry.invalidate_tags(["w"]) == {}
        assert registry.invalidate_tags([]) == {}

    def test_stats_tree_aggregates_per_cache_counters(self):
        registry, a, b = make_registry_pair(budget=10_000)
        a.store("k", 1)
        a.lookup("k")
        b.lookup("absent")
        tree = registry.stats()
        assert tree["budget_bytes"] == 10_000
        assert set(tree["caches"]) == {"a", "b"}
        assert tree["hits"] == 1 and tree["misses"] == 1
        assert tree["bytes"] == tree["caches"]["a"]["bytes"]
        for leaf in tree["caches"].values():
            assert {
                "hits", "misses", "evictions", "bytes", "invalidations",
                "size", "maxsize", "hit_rate",
            } <= set(leaf)

    def test_clear_all_empties_every_cache(self):
        registry, a, b = make_registry_pair()
        a.store("x", 1)
        b.store("y", 2)
        registry.clear_all()
        assert len(a) == 0 and len(b) == 0


class TestProcessRegistry:
    def test_all_seven_shared_caches_are_enrolled(self):
        # Two shared caches remain, the ones whose keys outlive any one
        # database; per-database state lives on its fact set instead.
        import repro.confidence.engine.memo  # noqa: F401
        import repro.plan  # noqa: F401
        import repro.shard  # noqa: F401

        names = {memo.name for memo in cache_registry().caches()}
        assert names == {"engine.memo", "plan.plans"}

    def test_shared_memo_is_the_enrolled_instance(self):
        from repro.confidence.engine.memo import shared_memo

        registry = cache_registry()
        assert registry.is_enrolled(shared_memo())
        assert registry.cache("engine.memo") is shared_memo()


class TestConcurrency:
    def test_concurrent_stores_under_budget_keep_accounting_sane(self):
        registry = CacheRegistry(budget_bytes=5_000)
        caches = [
            registry.enroll(LRUMemo(name=f"c{i}", sizeof=lambda k, v: 50))
            for i in range(4)
        ]
        errors = []

        def hammer(cache, base):
            try:
                for i in range(200):
                    cache.store((base, i), i)
                    cache.lookup((base, i - 1))
                    if i % 17 == 0:
                        cache.invalidate_tags([(base, i)])
            except Exception as exc:  # pragma: no cover - failure surface
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(cache, n))
            for n, cache in enumerate(caches)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        registry.balance()
        assert registry.total_bytes() <= 5_000
        for cache in caches:
            # accounted bytes must equal 50 per surviving entry exactly
            assert cache.bytes == 50 * len(cache)
