"""The fault-injection harness: latency and transient errors per lane."""

import asyncio
import time

import pytest

from repro.service import (
    FaultPolicy,
    PerSourceGateway,
    SourceRegistry,
    TransientSourceError,
)

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]


def run(coroutine):
    return asyncio.run(coroutine)


class TestPolicyValidation:
    def test_defaults_are_all_off(self):
        policy = FaultPolicy()
        assert policy.latency == 0.0
        assert policy.error_rate == 0.0
        assert policy.healthy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency": -0.1},
            {"error_rate": 1.5},
            {"error_rate": -0.1},
            {"error_rate": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestErrorInjection:
    def test_error_rate_one_always_raises(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = PerSourceGateway(FaultPolicy(error_rate=1.0), seed=3)

        async def scenario():
            with pytest.raises(TransientSourceError, match="injected"):
                await gateway.probe(registry.snapshot(), "S1")

        run(scenario())
        assert gateway.stats()["S1"]["errors_injected"] == 1

    def test_error_burst_recovers(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = PerSourceGateway(
            FaultPolicy(error_rate=1.0, error_burst=2), seed=3
        )

        async def scenario():
            failures = 0
            for _ in range(5):
                try:
                    await gateway.probe(registry.snapshot(), "S1")
                except TransientSourceError:
                    failures += 1
            return failures

        assert run(scenario()) == 2
        assert gateway.stats()["S1"]["errors_injected"] == 2

    def test_seed_makes_injection_deterministic(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)

        def outcomes(seed):
            gateway = PerSourceGateway(FaultPolicy(error_rate=0.5), seed=seed)

            async def scenario():
                pattern = []
                for _ in range(16):
                    try:
                        await gateway.probe(registry.snapshot(), "S1")
                        pattern.append("ok")
                    except TransientSourceError:
                        pattern.append("err")
                return pattern

            return run(scenario())

        assert outcomes(5) == outcomes(5)
        assert outcomes(5) != outcomes(6)


class TestLatency:
    def test_latency_delays_read(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = PerSourceGateway(FaultPolicy(latency=0.03))

        async def scenario():
            start = time.perf_counter()
            await gateway.probe(registry.snapshot(), "S1")
            return time.perf_counter() - start

        assert run(scenario()) >= 0.025
