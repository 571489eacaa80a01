"""One RegistryDiff retires a version, and its derived state goes with it.

A version's derived plan state (data sources, statistics, shard fragments)
lives on its fact sets, so the service only drops the superseded contexts
(:meth:`~repro.service.scheduler.RequestScheduler.retire_versions`) and
everything built from them becomes unreachable, with no cache to
invalidate. The engine memo is not part of it: its keys are the counting
problems, so its lines never go stale.
"""

from __future__ import annotations

import asyncio
import weakref

from repro.core import global_table
from repro.model import fact
from repro.plan import (
    data_source_for,
    plan_key,
    shared_plan_cache,
    statistics_for,
)
from repro.queries import identity_view, parse_rule
from repro.service import MediatorService, RequestStatus, SchedulerConfig
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


def context_of(service, snapshot):
    return service.scheduler._contexts[(snapshot.version, frozenset())]


def derived_refs(context):
    """Weak references to a context's certain core, its shard fragments,
    and the data source and statistics of each."""
    sets = [context.certain_db.core(), *context.executor.sharded.shards()]
    return (
        [weakref.ref(s) for s in sets]
        + [weakref.ref(data_source_for(s)) for s in sets]
        + [weakref.ref(statistics_for(s)) for s in sets]
    )


class TestSingleDiffClearsEverything:
    def test_one_mutation_retires_all_derived_entries(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                # Warm every derived layer from the version-0 snapshot.
                response = await service.answer(QUERY)
                assert response.status is RequestStatus.OK
                await service.confidence([R_A])
                refs = derived_refs(
                    context_of(service, service.registry.snapshot())
                )
                assert all(ref() is not None for ref in refs)

                service.register_source(extra_source())

                # Nothing the running service holds reaches them.
                return [ref() is None for ref in refs]

        dead = run(scenario())
        assert dead and all(dead)

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
                # diff retires only the *old* version's state.
                second = await service.answer(QUERY)
                assert first.status is second.status is RequestStatus.OK
                context = context_of(service, service.registry.snapshot())
                return [
                    data_source_for(shard).cached_artifacts()
                    for shard in context.executor.sharded.shards()
                ]

        artifacts = run(scenario())
        assert any(artifacts) and all(scans for scans, _ in artifacts)
        # The shared plan cache keys outlive every version.
        assert plan_key(QUERY, global_table()) in shared_plan_cache()

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
        assert counters.get("shard_stores_discarded", 0) == 1
        assert "cache_entries_invalidated" not in counters
        assert "plan_statistics_discarded" not in counters
        # The unified tree carries the two shared caches only.
        leaves = stats["cache"]["caches"]
        assert set(leaves) == {"engine.memo", "plan.plans"}
        total = sum(leaf["invalidations"] for leaf in leaves.values())
        assert stats["cache"]["invalidations"] == total
        assert stats["plan"]["data_sources_built"] >= 1
