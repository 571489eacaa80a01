"""Admission, micro-batching, deadlines, retries, shutdown, contexts."""

import asyncio
import multiprocessing
from fractions import Fraction

import pytest

from repro.model import fact
from repro.queries import parse_rule
from repro.resilience import ResilienceConfig, demote
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestScheduler,
    RequestStatus,
    SchedulerConfig,
    SourceRegistry,
)

from repro.confidence.engine import ConfidenceEngine

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
R_A, R_B, R_C = fact("R", "a"), fact("R", "b"), fact("R", "c")
QUERY = parse_rule("ans(x) <- R(x)")


def make_scheduler(config=None, policy=None, registry=None):
    """A scheduler over Example 5.1; *policy* faults every source's lane."""
    registry = registry or SourceRegistry(make_example51_collection(), DOMAIN)
    gateway = PerSourceGateway(default=policy)
    return RequestScheduler(registry, gateway=gateway, config=config)


def run(coroutine):
    return asyncio.run(coroutine)


class TestBatching:
    def test_burst_shares_one_engine_call(self):
        scheduler = make_scheduler(SchedulerConfig(max_batch=8))

        async def scenario():
            await scheduler.start()
            futures = [
                await scheduler.submit([R_A, R_B]) for _ in range(8)
            ]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.status is RequestStatus.OK for r in responses)
        assert all(r.batch_size == 8 for r in responses)
        assert scheduler.metrics.counter("engine_calls").value == 1
        # Example 5.1 at m=1: conf(a) = 4/7, conf(b) = 6/7.
        assert responses[0].confidences[R_A] == Fraction(4, 7)
        assert responses[0].confidences[R_B] == Fraction(6, 7)

    def test_batch_size_capped(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=3, batch_window=0.0)
        )

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(7)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.ok for r in responses)
        assert max(r.batch_size for r in responses) <= 3

    def test_per_request_dispatch_when_batching_disabled(self):
        scheduler = make_scheduler(SchedulerConfig(max_batch=1))

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(4)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.batch_size == 1 for r in responses)
        assert scheduler.metrics.counter("engine_calls").value == 4

    def test_mixed_versions_split_batches(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=16), registry=registry
        )

        async def scenario():
            await scheduler.start()
            first = [await scheduler.submit([R_A]) for _ in range(2)]
            source = registry.snapshot().collection.by_name("S2")
            registry.update(source.with_bounds(soundness_bound=1))
            second = [await scheduler.submit([R_A]) for _ in range(2)]
            responses = [await f for f in first + second]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert [r.snapshot_version for r in responses] == [0, 0, 1, 1]
        assert scheduler.metrics.counter("engine_calls").value == 2
        # Raising S2's soundness floor changes the answer — proof the two
        # batches really computed against different snapshots.
        assert responses[0].confidences[R_A] != responses[2].confidences[R_A]


class TestAdmission:
    def test_queue_overflow_rejected_with_reason(self):
        scheduler = make_scheduler(SchedulerConfig(max_queue=4))

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(10)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        rejected = [r for r in responses if r.status is RequestStatus.REJECTED]
        served = [r for r in responses if r.ok]
        assert len(rejected) == 6
        assert len(served) == 4
        assert all("queue full" in r.reason for r in rejected)

    def test_empty_fact_list_rejected(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.status is RequestStatus.REJECTED
        assert response.reason == "empty fact list"

    def test_submit_before_start_raises(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.submit([R_A])

        with pytest.raises(Exception, match="not started"):
            run(scenario())


class TestDeadlines:
    def test_expired_in_queue_times_out_without_compute(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.02),
        )

        async def scenario():
            await scheduler.start()
            # First request occupies the worker for ~20ms; the rest carry
            # sub-millisecond deadlines and expire while queued.
            first = await scheduler.submit([R_A], timeout=5.0)
            rest = [
                await scheduler.submit([R_B], timeout=0.001)
                for _ in range(3)
            ]
            responses = [await f for f in [first] + rest]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert responses[0].ok
        for response in responses[1:]:
            assert response.status is RequestStatus.TIMEOUT
            assert "queued" in response.reason
            assert response.confidences == {}
        # Expired requests were answered without spending engine work:
        # only the first request's batch computed.
        assert scheduler.metrics.counter("engine_calls").value == 1

    def test_deadline_crossed_during_computation(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.03),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A], timeout=0.005)
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.status is RequestStatus.TIMEOUT
        assert "during computation" in response.reason
        assert response.confidences == {}


class TestRetries:
    def test_transient_errors_retried_until_success(self):
        scheduler = make_scheduler(
            SchedulerConfig(resilience=ResilienceConfig(max_hedges=2)),
            policy=FaultPolicy(error_rate=1.0, error_burst=2),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.ok and not response.degraded
        assert response.attempts == 3
        assert response.confidences[R_A] == Fraction(4, 7)
        assert scheduler.metrics.counter("source_hedges").value == 4

    def test_exhausted_retries_fail_explicitly(self):
        """A source failing past its budget is excluded: the response is OK,
        degraded, names the lost sources, and answers exactly as the
        collection with their annotations demoted."""
        collection = make_example51_collection()
        scheduler = make_scheduler(
            SchedulerConfig(resilience=ResilienceConfig(max_hedges=1)),
            policy=FaultPolicy(error_rate=1.0),
            registry=SourceRegistry(collection, DOMAIN),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A, R_B])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.status is RequestStatus.OK
        assert response.degraded and response.guarantee == "degraded"
        assert response.excluded_sources == ("S1", "S2")
        assert response.attempts == 2
        with ConfidenceEngine(
            demote(collection, {"S1", "S2"}), DOMAIN
        ) as engine:
            expected = {f: engine.confidence(f) for f in (R_A, R_B)}
        assert response.confidences == expected
        assert scheduler.metrics.counter("source_probe_failures").value == 2
        assert scheduler.metrics.counter("responses_error").value == 0

    def test_crashed_source_is_probed_once(self):
        """SourceCrashedError is never retried, whatever the hedge budget."""
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))
        scheduler = RequestScheduler(
            SourceRegistry(make_example51_collection(), DOMAIN),
            gateway=gateway,
            config=SchedulerConfig(
                resilience=ResilienceConfig(max_hedges=3, hedge_delay=0.001)
            ),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.ok and response.excluded_sources == ("S2",)
        assert gateway.stats()["S2"]["reads"] == 1
        assert response.attempts == 1


class TestShutdown:
    def test_stop_rejects_unserved_requests(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.04),
        )

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(5)]
            await asyncio.sleep(0.01)  # worker now mid-probe on request 1
            await scheduler.stop()
            return [await f for f in futures]

        responses = run(scenario())
        assert all(
            r.status is RequestStatus.REJECTED and "stopped" in r.reason
            for r in responses
        )

    def test_stop_is_idempotent(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.start()
            await scheduler.stop()
            await scheduler.stop()

        run(scenario())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_queue": 0}, {"max_batch": 0}, {"shards": 0}],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)


class TestSnapshotContexts:
    def test_superseded_versions_leave_no_open_pools(self):
        """Each update retires the old version's context, and no context
        (engine or shard executor) ever starts a worker process."""
        live = []

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                for _ in range(6):
                    assert (await service.confidence([R_A, R_B])).ok
                    assert (await service.answer(QUERY)).ok
                    source = service.registry.snapshot().collection.by_name("S2")
                    service.update_source(source.with_bounds(
                        soundness_bound=source.soundness_bound
                    ))
                    live.append(len(multiprocessing.active_children()))
                return dict(service.scheduler._contexts)

        baseline = len(multiprocessing.active_children())
        contexts = run(scenario())
        assert max(live) <= baseline
        assert contexts == {}
        assert len(multiprocessing.active_children()) == baseline

    def test_open_contexts_are_capped(self):
        """Without service-driven retirement the cap still bounds the open
        contexts, evicting the oldest versions first."""
        from repro.service.scheduler import MAX_CONTEXTS

        scheduler = make_scheduler()
        registry = scheduler.registry

        async def scenario():
            await scheduler.start()
            for _ in range(MAX_CONTEXTS + 2):
                assert (await scheduler.request([R_A])).ok
                source = registry.snapshot().collection.by_name("S2")
                registry.update(source.with_bounds(
                    soundness_bound=source.soundness_bound
                ))
            versions = sorted(version for version, _ in scheduler._contexts)
            await scheduler.stop()
            return versions

        versions = run(scenario())
        assert versions == list(range(2, MAX_CONTEXTS + 2))
        assert scheduler._contexts == {}
