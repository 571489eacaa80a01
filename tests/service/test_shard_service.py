"""Shard wiring in the mediator service: answers, metrics, invalidation."""

import asyncio

from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.service import (
    MediatorService,
    RequestStatus,
    SchedulerConfig,
    ServiceResponse,
)
from repro.shard import canonical_order, reset_shard_stats

from tests.conftest import make_example51_collection
from tests.service.test_scheduler import make_scheduler

DOMAIN = ["a", "b", "c", "d"]
QUERY = parse_rule("ans(x) <- R(x)")


def run(coroutine):
    return asyncio.run(coroutine)


def answer_with(config):
    scheduler = make_scheduler(config)

    async def scenario():
        await scheduler.start()
        future = await scheduler.submit([], query=QUERY)
        response = await future
        await scheduler.stop()
        return scheduler, response

    return run(scenario())


class TestShardedQueryPath:
    def test_sharded_answers_match_single_store(self):
        _s, single = answer_with(SchedulerConfig())
        _s, sharded = answer_with(SchedulerConfig(shards=3))
        assert single.status is RequestStatus.OK
        assert sharded.status is RequestStatus.OK
        assert sharded.answers == single.answers

    def test_answers_arrive_in_canonical_order(self):
        _s, response = answer_with(SchedulerConfig(shards=2))
        assert response.answers == canonical_order(response.answers)
        # the certain base of Example 5.1 is empty at confidence 1, so the
        # lower bound may legitimately be empty; the ordering contract is
        # what this test pins, not the extension
        assert isinstance(response.answers, tuple)

    def test_shard_metrics_recorded(self):
        reset_shard_stats()
        scheduler, response = answer_with(SchedulerConfig(shards=4))
        assert response.status is RequestStatus.OK
        assert scheduler.metrics.counter("shard_queries").value >= 1
        assert scheduler.metrics.counter("shard_fragments_executed").value >= 1

    def test_single_store_config_builds_no_executor(self):
        scheduler = make_scheduler(SchedulerConfig())

        async def scenario():
            await scheduler.start()
            response = await (await scheduler.submit([], query=QUERY))
            contexts = list(scheduler._contexts.values())
            await scheduler.stop()
            return response, contexts

        response, contexts = run(scenario())
        assert response.status is RequestStatus.OK
        assert contexts and all(c.executor is None for c in contexts)


class TestInvalidation:
    def test_superseded_shard_stores_are_retired(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                scheduler = service.scheduler
                response = await service.answer(QUERY)
                assert response.status is RequestStatus.OK
                version = service.registry.version()
                assert list(scheduler._contexts) == [(version, frozenset())]
                executor = scheduler._contexts[(version, frozenset())].executor
                assert executor is not None
                source = service.registry.snapshot().collection.by_name("S2")
                service.update_source(source.with_bounds(
                    soundness_bound=source.soundness_bound
                ))
                return scheduler, dict(scheduler._contexts), executor

        scheduler, contexts, executor = run(scenario())
        assert contexts == {}
        assert executor.sharded.layout_counters()["base_built"] == 2
        assert scheduler.metrics.counter("shard_stores_discarded").value == 1

    def test_registry_mutation_retires_through_the_service(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                first = await service.answer(QUERY)
                assert first.status is RequestStatus.OK
                service.register_source(_extra_source())
                second = await service.answer(QUERY)
                assert second.status is RequestStatus.OK
                return service.stats(), first, second

        stats, first, second = run(scenario())
        assert stats["shard"]["shards"] == 2
        counters = stats["metrics"]["counters"]
        assert counters.get("shard_stores_discarded", 0) >= 1
        # post-mutation answers still canonical and sound
        assert second.answers == canonical_order(second.answers)


def _extra_source():
    from repro.sources import SourceDescriptor

    return SourceDescriptor(
        identity_view("V3", "R", 1), [fact("V3", "d")], "1/2", "1/2",
        name="S3",
    )


class TestResponseRendering:
    def test_to_dict_orders_answers_canonically(self):
        response = ServiceResponse(
            request_id=1,
            status=RequestStatus.OK,
            answers=(fact("ans", 2), fact("ans", 1), fact("ans", 3)),
        )
        assert ServiceResponse.to_dict(response)["answers"] == [
            "ans(1)", "ans(2)", "ans(3)",
        ]
