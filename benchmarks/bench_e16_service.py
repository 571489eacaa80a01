"""E16 — the mediator service under open-loop load.

Two tables:

1. **Micro-batching** — the same request burst served per-request
   (``max_batch=1``) and micro-batched. Batched dispatch amortizes one
   engine call over the whole batch, so throughput rises with the batch
   cap; the memo-off ablation shows the margin without the engine cache
   hiding the per-call cost.
2. **Fault injection** — the burst under latency, transient errors, and
   tight deadlines injected on every source's gateway lane. Degradation
   must be *graceful*: every request ends in an explicit terminal status
   (OK / TIMEOUT / REJECTED / ERROR), never a crash or a silently wrong
   confidence; a source that stays down past its retries is excluded and
   the answer is marked degraded.
"""

import asyncio
import time

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from benchmarks.conftest import write_table


def _chain_collection(n_sources: int) -> SourceCollection:
    """Example 5.1 generalized: S_i claims {e_i, e_{i+1}}, completeness
    1/4 and soundness 1/2 (a 1/2 completeness floor on every overlapping
    pair admits no database once the chain outgrows Example 5.1)."""
    sources = []
    for i in range(1, n_sources + 1):
        sources.append(
            SourceDescriptor(
                identity_view(f"V{i}", "R", 1),
                [fact(f"V{i}", f"e{i}"), fact(f"V{i}", f"e{i + 1}")],
                "1/4",
                "1/2",
                name=f"S{i}",
            )
        )
    return SourceCollection(sources)


def _domain(n_sources: int, anonymous: int = 2):
    claimed = [f"e{i}" for i in range(1, n_sources + 2)]
    return claimed + [f"x{i}" for i in range(anonymous)]


async def _burst(service: MediatorService, requests: int, timeout=None):
    """Open-loop: admit everything, then await everything."""
    facts = service.registry.snapshot().covered_facts()
    async with service:
        futures = []
        for i in range(requests):
            wanted = [facts[i % len(facts)], facts[(i + 1) % len(facts)]]
            futures.append(await service.submit(wanted, timeout=timeout))
        return [await f for f in futures]


def _run_config(collection, domain, requests, batch, cache_size, policy=None,
                timeout=None):
    service = MediatorService(
        collection,
        domain,
        config=SchedulerConfig(
            max_queue=max(256, requests),
            max_batch=batch,
            engine_cache_size=cache_size,
        ),
        gateway=PerSourceGateway(default=policy, seed=7),
    )
    start = time.perf_counter()
    responses = asyncio.run(_burst(service, requests, timeout=timeout))
    elapsed = time.perf_counter() - start
    return service, responses, elapsed


def test_e16_batching(benchmark, results_dir):
    """Throughput per-request vs micro-batched, memo on and off."""
    collection = _chain_collection(8)
    domain = _domain(8)
    requests = 160

    def sweep():
        rows = []
        for cache_size, cache_label in ((0, "off"), (None, "shared")):
            baseline = None
            for batch in (1, 4, 16, 32):
                service, responses, elapsed = _run_config(
                    collection, domain, requests, batch, cache_size
                )
                assert all(r.ok for r in responses)
                counters = service.metrics.snapshot()["counters"]
                latency = service.metrics.histogram("latency").snapshot()
                throughput = requests / elapsed
                if batch == 1:
                    baseline = throughput
                rows.append(
                    (
                        cache_label,
                        batch,
                        counters["engine_calls"],
                        f"{throughput:8.0f}",
                        f"{throughput / baseline:5.2f}x",
                        f"{1000 * latency['p50']:7.2f}",
                        f"{1000 * latency['p95']:7.2f}",
                    )
                )
            # The acceptance claim: batching beats per-request dispatch.
            per_request = float(rows[-4][3])
            batched = float(rows[-1][3])
            assert batched > per_request, (
                f"batched throughput {batched} <= per-request {per_request} "
                f"(memo {cache_label})"
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e16_batching",
        "E16: micro-batching vs per-request dispatch "
        f"(8-source chain, {requests} requests, open loop)",
        ["memo", "max_batch", "engine calls", "req/s", "speedup",
         "p50 ms", "p95 ms"],
        rows,
        notes=[
            "speedup is against max_batch=1 within the same memo setting",
            "one engine call serves a whole batch; with the memo on, each "
            "snapshot context keys and counts once and later batches read "
            "its kept confidences",
        ],
    )


def test_e16_fault_injection(benchmark, results_dir):
    """Graceful degradation: explicit statuses under injected faults."""
    collection = _chain_collection(6)
    domain = _domain(6)
    requests = 80

    def sweep():
        rows = []
        scenarios = [
            ("healthy", None, None),
            ("latency 2ms", FaultPolicy(latency=0.002), None),
            ("errors 50%", FaultPolicy(error_rate=0.5), None),
            ("latency + 5ms deadline", FaultPolicy(latency=0.01), 0.005),
        ]
        for label, policy, timeout in scenarios:
            service, responses, elapsed = _run_config(
                collection, domain, requests, 8, None,
                policy=policy, timeout=timeout,
            )
            by_status = {status: 0 for status in RequestStatus}
            for response in responses:
                by_status[response.status] += 1
            # Graceful: every request reached exactly one terminal status.
            assert sum(by_status.values()) == requests
            counters = service.metrics.snapshot()["counters"]
            latency = service.metrics.histogram("latency").snapshot()
            rows.append(
                (
                    label,
                    by_status[RequestStatus.OK],
                    counters.get("responses_degraded", 0),
                    by_status[RequestStatus.TIMEOUT],
                    by_status[RequestStatus.ERROR],
                    counters.get("source_hedges", 0),
                    f"{1000 * latency['p95']:7.2f}",
                )
            )
        healthy, latency_row, errors, deadline = rows
        assert healthy[1] == requests and healthy[2] == 0  # all OK, exact
        assert latency_row[1] == requests        # latency alone only slows
        assert errors[1] == requests              # lost sources degrade...
        assert errors[5] > 0                      # ...after real retries
        assert deadline[3] > 0                    # deadlines expire explicitly
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e16_faults",
        f"E16: fault injection over a {requests}-request burst "
        "(6-source chain, batch 8, faults on every source's lane)",
        ["scenario", "ok", "degraded", "timeout", "error", "retries",
         "p95 ms"],
        rows,
        notes=[
            "every request ends in an explicit terminal status — the "
            "service never crashes or answers from a wrong snapshot",
            "TIMEOUT responses carry no confidences (no silently late or "
            "partial answers)",
            "retries = re-launched probe attempts (one per source per "
            "batch at the default max_hedges=1); a source whose attempts "
            "all fail is excluded and the OK answer is degraded: its "
            "annotation demoted to <c=0, s=0>",
        ],
    )
