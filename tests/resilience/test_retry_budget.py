"""The one retry loop: re-launches bounded by max_hedges and source_timeout.

The availability pass re-launches a probe attempt that failed transiently
while ``max_hedges`` allows, hedges a slow one after ``hedge_delay``, and
never runs past ``source_timeout``. A source that outlives its budget is
excluded and the batch is answered degraded — never an unhandled
exception, never a guaranteed-late answer.
"""

import asyncio

from repro.model import fact
from repro.resilience import ResilienceConfig
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from tests.conftest import example51_domain, make_example51_collection

DOMAIN = example51_domain(1)


def run(coroutine):
    return asyncio.run(coroutine)


def faulty_service(policy, **resilience):
    """Example 5.1 with *policy* on every source's lane."""
    gateway = PerSourceGateway(default=policy, seed=11)
    service = MediatorService(
        make_example51_collection(), DOMAIN,
        config=SchedulerConfig(
            batch_window=0.0, resilience=ResilienceConfig(**resilience)
        ),
        gateway=gateway,
    )
    return service, gateway


def test_exhausted_attempts_surface_structured_error():
    """error_rate=1.0: every attempt fails; each source's failure surfaces
    as structured exclusion metadata on the response, not as a traceback
    out of the worker."""
    service, gateway = faulty_service(FaultPolicy(error_rate=1.0), max_hedges=1)

    async def scenario():
        async with service:
            response = await service.confidence(
                [fact("R", "a")], timeout=5.0
            )
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.OK
    assert response.degraded and response.excluded_sources == ("S1", "S2")
    counters = stats["metrics"]["counters"]
    assert counters["source_probe_failures"] == 2
    assert counters["source_hedges"] == 2
    assert all(lane["reads"] == 2 for lane in gateway.stats().values())


def test_retry_budget_capped_by_source_timeout():
    """A partitioned source is hedged every 10 ms until source_timeout, then
    excluded: the retries end inside the budget, well before the request's
    own deadline."""
    service, gateway = faulty_service(
        FaultPolicy(partition=True),
        source_timeout=0.05, hedge_delay=0.01, max_hedges=20,
    )

    async def scenario():
        async with service:
            response = await service.confidence(
                [fact("R", "a")], timeout=0.25
            )
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.OK and response.degraded
    assert response.latency < 0.25
    assert stats["metrics"]["counters"]["source_probe_timeouts"] == 2
    # At most one attempt per hedge_delay fits inside source_timeout.
    assert 2 <= response.attempts <= 6
    assert all(lane["reads"] <= 6 for lane in gateway.stats().values())


def test_unbounded_requests_still_retry_to_exhaustion():
    """No deadline: the full attempt budget is spent before giving up."""
    service, gateway = faulty_service(FaultPolicy(error_rate=1.0), max_hedges=2)

    async def scenario():
        async with service:
            response = await service.confidence([fact("R", "a")])
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.OK and response.degraded
    assert response.attempts == 3
    assert stats["metrics"]["counters"]["source_hedges"] == 4
    assert all(lane["reads"] == 3 for lane in gateway.stats().values())
