"""One RegistryDiff, one bus call, every derived cache retired (regression).

Before the cache runtime, a registry mutation fanned out to three separate
invalidation call-sites: memo keys, statistics and shard stores each had
their own, and partitions had none. These tests pin
the unified contract: a
single mutation produces one tag set (:meth:`retire_version_tags`) and one
``CacheRegistry.invalidate_tags`` call, after which *no* enrolled cache
still holds an entry derived from the retired version's fact sets. The
engine memo is not among them: its keys are the counting problems, so its
lines never go stale.
"""

from __future__ import annotations

import asyncio

from repro.cache import cache_registry
from repro.model import fact
from repro.plan.statistics import cached_statistics
from repro.queries import identity_view, parse_rule
from repro.service import MediatorService, RequestStatus, SchedulerConfig
from repro.shard.partition import _PARTITIONS
from repro.sources import SourceDescriptor

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
QUERY = parse_rule("ans(x) <- R(x)")
R_A = fact("R", "a")


def run(coroutine):
    return asyncio.run(coroutine)


def extra_source():
    return SourceDescriptor(
        identity_view("V3", "R", 1), [fact("V3", "d")], "1/2", "1/2",
        name="S3",
    )


class TestSingleDiffClearsEverything:
    def test_one_mutation_retires_all_derived_entries(self):
        registry = cache_registry()

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                # Warm every derived layer from the version-0 snapshot.
                response = await service.answer(QUERY)
                assert response.status is RequestStatus.OK
                await service.confidence([R_A])
                old = service.registry.snapshot()
                context = service.scheduler._contexts[
                    (old.version, frozenset())
                ]
                core = context.certain_db.core()
                executor = context.executor
                fragments = executor.sharded.built_fragments()
                partition_key = (executor.sharded.union_core(),
                                 executor.sharded.spec)
                # The warm state this test is about: every layer primed.
                assert cached_statistics(core) is not None
                assert fragments
                assert _PARTITIONS.peek(partition_key) is not None
                before_invalidations = registry.stats()["invalidations"]

                service.register_source(extra_source())

                return core, fragments, partition_key, before_invalidations

        core, fragments, partition_key, before = run(scenario())

        # Fact-set-derived entries for the retired certain core: gone.
        assert cached_statistics(core) is None
        for f in fragments:
            assert cached_statistics(f) is None
        # Partition layouts tagged with the retired cores: gone.
        assert _PARTITIONS.peek(partition_key) is None
        assert _PARTITIONS.invalidate_tags([core, *fragments]) == 0
        # And it was the bus that did it, not per-cache clears.
        assert cache_registry().stats()["invalidations"] > before

    def test_unrelated_entries_survive_the_diff(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                first = await service.answer(QUERY)
                service.register_source(extra_source())
                # Re-warm under version 1: the new snapshot's derived state
                # is built fresh and must be found warm afterwards — the
                # diff retires only the *old* version's entries.
                second = await service.answer(QUERY)
                new = service.registry.snapshot()
                executor = service.scheduler._contexts[
                    (new.version, frozenset())
                ].executor
                partition_key = (executor.sharded.union_core(),
                                 executor.sharded.spec)
                assert first.status is second.status is RequestStatus.OK
                return partition_key

        partition_key = run(scenario())
        # fresh snapshot's partition layout untouched by the earlier diff
        assert _PARTITIONS.peek(partition_key) is not None

    def test_bus_counts_surface_in_service_stats(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                await service.answer(QUERY)
                await service.confidence([R_A])
                service.register_source(extra_source())
                return service.stats()

        stats = run(scenario())
        counters = stats["metrics"]["counters"]
        assert counters.get("registry_mutations", 0) == 1
        assert counters.get("cache_entries_invalidated", 0) >= 1
        # The unified tree carries the same story per cache.
        leaves = stats["cache"]["caches"]
        total = sum(leaf["invalidations"] for leaf in leaves.values())
        assert stats["cache"]["invalidations"] == total >= 1
