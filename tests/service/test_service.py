"""MediatorService end-to-end: correctness, snapshot isolation, stats."""

import asyncio
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.exceptions import SourceError
from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceDescriptor
from repro.confidence.engine import ConfidenceEngine, LRUMemo
from repro.resilience import demote
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from tests.conftest import make_example51_collection

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_service_snapshot  # noqa: E402

DOMAIN = ["a", "b", "c", "d"]
R_A, R_B, R_C, R_D = (fact("R", x) for x in "abcd")


def run(coroutine):
    return asyncio.run(coroutine)


class TestCorrectness:
    def test_service_matches_direct_engine(self):
        collection = make_example51_collection()

        async def scenario():
            async with MediatorService(collection, DOMAIN) as service:
                return await service.confidence([R_A, R_B, R_C, R_D])

        response = run(scenario())
        assert response.ok

        with ConfidenceEngine(collection, DOMAIN) as engine:
            expected = {f: engine.confidence(f) for f in (R_A, R_B, R_C, R_D)}
        assert response.confidences == expected
        assert response.confidences[R_A] == Fraction(4, 7)
        assert response.confidences[R_B] == Fraction(6, 7)

    def test_anonymous_fact_gets_a_confidence(self):
        # d is claimed by no source; the service still answers it.
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                return await service.confidence([R_D])

        response = run(scenario())
        assert response.ok
        assert 0 < response.confidences[R_D] < 1


class TestSnapshotIsolation:
    def test_inflight_requests_see_preupdate_snapshot(self):
        """Acceptance criterion: a source registered mid-flight is invisible
        to already-admitted requests, which answer exactly as the pre-update
        snapshot would."""
        collection = make_example51_collection()
        # Perfectly sound (completeness 0): every possible database must now
        # contain a and d, without contradicting S2's soundness floor.
        extra = SourceDescriptor(
            identity_view("V3", "R", 1),
            [fact("V3", "a"), fact("V3", "d")],
            0,
            1,
            name="S3",
        )

        async def scenario():
            async with MediatorService(collection, DOMAIN) as service:
                old = service.registry.snapshot()
                # Admitted but not yet served: submit() never yields to the
                # worker, so the mutation below lands strictly mid-flight.
                inflight = await service.submit([R_A, R_D])
                diff = service.register_source(extra)
                assert service.registry.version() == 1
                before = await inflight
                after = await service.confidence([R_A, R_D])
                return old, diff, before, after

        old, diff, before, after = run(scenario())

        assert before.ok and after.ok
        assert before.snapshot_version == 0
        assert after.snapshot_version == 1

        # The in-flight answer is exactly the pre-update snapshot's.
        with ConfidenceEngine(old.instance()) as engine:
            expected = {f: engine.confidence(f) for f in (R_A, R_D)}
        assert before.confidences == expected

        # The mutation really changed the answers (S3 forces a and d into
        # every possible database), so isolation is not vacuous.
        assert after.confidences[R_A] == after.confidences[R_D] == 1
        assert before.confidences[R_A] != 1 and before.confidences[R_D] != 1

    def test_reverting_mutation_hits_the_private_memo(self):
        """A mutation retires no memo line; a version equal to an earlier
        one is served from that version's line."""
        memo = LRUMemo(128)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN, memo=memo
            ) as service:
                first = await service.confidence([R_A, R_B])
                s2 = service.registry.snapshot().collection.by_name("S2")
                service.update_source(s2.with_bounds(soundness_bound=1))
                assert len(memo) == 1
                changed = await service.confidence([R_A, R_B])
                assert len(memo) == 2
                service.update_source(s2)
                restored = await service.confidence([R_A, R_B])
                return first, changed, restored

        first, changed, restored = run(scenario())
        assert first.ok and changed.ok and restored.ok
        assert restored.snapshot_version == 2
        assert restored.confidences == first.confidences
        assert changed.confidences != first.confidences
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 2, 2)

    def test_a_rejected_set_domain_leaves_the_old_version_serving(self):
        """Dropping an extension constant from the domain is rejected before
        the head moves, so later requests still answer at version 0."""

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                with pytest.raises(SourceError, match=re.escape(
                    "extension fact R('c') uses constants outside the "
                    "domain: [Constant('c')]"
                )):
                    service.set_domain(["a", "b", "d"])
                return await service.confidence([R_A, R_B, R_C, R_D])

        response = run(scenario())
        assert response.status is RequestStatus.OK
        assert response.snapshot_version == 0
        assert response.confidences[R_B] == Fraction(6, 7)


def record_keys_and_sweeps(monkeypatch):
    """Record every problem the engine keys and every sweep it runs."""
    from repro.confidence.engine import core, kernel

    keyed, swept = [], []
    canonical_key, solve_wire = core.canonical_key, kernel.solve_wire

    def key(problem):
        keyed.append(problem)
        return canonical_key(problem)

    def sweep(wire, track=()):
        swept.append(wire)
        return solve_wire(wire, track)

    monkeypatch.setattr(core, "canonical_key", key)
    monkeypatch.setattr(kernel, "solve_wire", sweep)
    return keyed, swept


class TestSteadyState:
    def test_context_keys_once_then_batches_neither_key_nor_count(
        self, monkeypatch
    ):
        keyed, swept = record_keys_and_sweeps(monkeypatch)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN, memo=LRUMemo(64)
            ) as service:
                assert (await service.confidence([R_A, R_B])).ok
                assert (len(keyed), len(swept)) == (1, 1)
                for i in range(20):
                    wanted = [(R_A, R_B, R_C)[i % 3]]
                    assert (await service.confidence(wanted)).ok
                steady = (len(keyed) - 1, len(swept) - 1)
                s2 = service.registry.snapshot().collection.by_name("S2")
                per_context = []
                for update in (s2.with_bounds(soundness_bound=1), s2):
                    before = len(keyed)
                    service.update_source(update)
                    for _ in range(5):
                        assert (await service.confidence([R_A, R_C])).ok
                    per_context.append(len(keyed) - before)
                return steady, per_context, service.metrics

        steady, per_context, metrics = run(scenario())
        assert steady == (0, 0)
        assert per_context == [1, 1]
        assert metrics.counter("engine_calls").value == 31

    def test_memo_off_config_counts_every_batch(self, monkeypatch):
        keyed, swept = record_keys_and_sweeps(monkeypatch)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(engine_cache_size=0),
            ) as service:
                for _ in range(3):
                    assert (await service.confidence([R_A, R_B])).ok

        run(scenario())
        assert (len(keyed), len(swept)) == (0, 3)


class TestDegradation:
    def test_faulty_service_never_crashes(self):
        """Under flaky, slow sources every response is OK; a degraded one
        answers exactly as the collection with its lost sources demoted."""
        collection = make_example51_collection()

        async def scenario():
            service = MediatorService(
                collection,
                DOMAIN,
                gateway=PerSourceGateway(
                    default=FaultPolicy(latency=0.002, error_rate=0.5),
                    seed=7,
                ),
            )
            async with service:
                responses = []
                for _ in range(12):
                    responses.append(
                        await service.confidence([R_A], timeout=1.0)
                    )
                return responses

        responses = run(scenario())
        assert all(r.status is RequestStatus.OK for r in responses)
        assert any(r.degraded for r in responses)
        for response in responses:
            excluded = set(response.excluded_sources)
            with ConfidenceEngine(demote(collection, excluded), DOMAIN) as engine:
                assert response.confidences[R_A] == engine.confidence(R_A)
            if not excluded:
                assert response.confidences[R_A] == Fraction(4, 7)


class TestInternalFaults:
    def test_unexpected_engine_error_fails_only_its_batch(self, monkeypatch):
        """A fault outside ``ReproError`` answers its own batch ``ERROR``;
        the worker keeps serving and the snapshot still balances."""
        confidences = ConfidenceEngine.confidences
        raised = []

        def fails_once(engine, *args, **kwargs):
            if not raised:
                raised.append(True)
                raise TypeError("injected engine fault")
            return confidences(engine, *args, **kwargs)

        monkeypatch.setattr(ConfidenceEngine, "confidences", fails_once)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                failed = await asyncio.wait_for(service.confidence([R_A]), 5)
                served = await asyncio.wait_for(
                    service.confidence([R_A, R_B]), 5
                )
                inflight = list(service.scheduler._inflight)
                return failed, served, inflight, service.stats()

        failed, served, inflight, stats = run(scenario())
        assert failed.status is RequestStatus.ERROR
        assert "TypeError" in failed.reason
        assert served.ok
        assert served.confidences == {R_A: Fraction(4, 7), R_B: Fraction(6, 7)}
        assert inflight == []
        counters = stats["metrics"]["counters"]
        assert counters["internal_errors"] == 1
        assert (counters["responses_error"], counters["responses_ok"]) == (1, 1)
        snapshot = json.loads(json.dumps(stats))
        assert check_service_snapshot.validate(snapshot) == []


class TestObservability:
    def test_stats_shape_and_json_round_trip(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                await service.confidence([R_A])
                return service.stats(), service.recent_spans()

        stats, spans = run(scenario())
        assert set(stats) == {
            "registry", "metrics", "gateway", "tracing", "plan", "shard",
            "cache", "resilience",
        }
        assert "engine.memo" in stats["cache"]["caches"]
        assert {"hits", "misses", "evictions", "bytes", "invalidations"} <= set(
            stats["cache"]["caches"]["engine.memo"]
        )
        assert stats["cache"]["bytes"] >= 0
        assert set(stats["plan"]) == {
            "cache", "data_sources_built", "statistics", "optimizer",
        }
        assert stats["registry"]["version"] == 0
        assert stats["registry"]["sources"] == 2
        assert stats["gateway"]["reads"] == 2  # one probe per source
        assert all(
            lane["errors_injected"] == 0
            for lane in stats["gateway"]["lanes"].values()
        )
        assert set(stats["resilience"]["sources"]) == {"S1", "S2"}
        assert stats["metrics"]["counters"]["responses_ok"] == 1
        assert stats["metrics"]["histograms"]["latency"]["count"] == 1
        assert stats["tracing"]["spans_started"] >= 3

        parsed = json.loads(json.dumps(stats, sort_keys=True))
        assert parsed["registry"]["version"] == 0

        names = {s["name"] for s in spans}
        assert {"batch", "source_read", "engine"} <= names
        read = next(s for s in spans if s["name"] == "source_read")
        batch = next(s for s in spans if s["name"] == "batch")
        assert read["parent_id"] == batch["span_id"]
        assert read["attributes"] == {
            "version": 0, "probed": 2, "short_circuited": 0,
            "excluded": 0, "retried": 0,
        }

    def test_source_read_span_counts_a_degraded_batch(self):
        gateway = PerSourceGateway(
            policies={
                "S1": FaultPolicy(error_rate=1.0, error_burst=1),
                "S2": FaultPolicy(crash=True),
            }
        )

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN, gateway=gateway
            ) as service:
                for _ in range(3):
                    assert (await service.confidence([R_A])).degraded
                return service.recent_spans()

        reads = [
            s["attributes"] for s in run(scenario())
            if s["name"] == "source_read"
        ]
        # S1 fails once and is retried; S2 crashes until its breaker opens.
        assert reads[0] == {
            "version": 0, "probed": 2, "short_circuited": 0,
            "excluded": 1, "retried": 1,
        }
        assert reads[-1] == {
            "version": 0, "probed": 1, "short_circuited": 1,
            "excluded": 1, "retried": 0,
        }

    def test_response_to_dict_is_json_serializable(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                return await service.confidence([R_A])

        payload = run(scenario()).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["status"] == "ok"
        assert parsed["confidences"]["R('a')"] == 4 / 7
