""":class:`MediatorService`: the long-running mediator, assembled.

Where :class:`~repro.integration.mediator.Mediator` is a one-shot facade —
build it, ask it, drop it — the service is the deployment shape the paper's
§1.1 motivates: sources register, update, and fail *while queries are in
flight*. It owns:

* a :class:`~repro.service.registry.SourceRegistry` (versioned, COW
  snapshots; a mutation validates the new version, then swaps the head),
* a :class:`~repro.service.scheduler.RequestScheduler` (bounded admission,
  deadlines, micro-batching, the per-source availability pass),
* a :class:`~repro.service.faults.PerSourceGateway` as the source-read
  seam (healthy lanes unless given one with fault policies),
* a :class:`~repro.service.metrics.MetricsRegistry` and
  :class:`~repro.service.tracing.Tracer`, merged into one :meth:`stats`
  snapshot (the scrape surface of ``python -m repro serve``).

Use it as an async context manager::

    async with MediatorService(collection, domain) as service:
        response = await service.confidence([fact("R", "a")], timeout=0.5)
        assert response.ok

Mutations are thread-safe and may be called from outside the loop; queries
run on the loop the service was started on. An invalid mutation raises
:class:`~repro.exceptions.SourceError` and leaves the head version serving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache import cache_registry
from repro.sources.collection import SourceCollection
from repro.sources.descriptor import SourceDescriptor
from repro.confidence.engine.memo import LRUMemo
from repro.service.faults import PerSourceGateway
from repro.service.metrics import MetricsRegistry
from repro.service.registry import RegistryDiff, SourceRegistry
from repro.service.requests import ServiceResponse
from repro.service.scheduler import RequestScheduler, SchedulerConfig
from repro.service.tracing import Tracer


class MediatorService:
    """A concurrent, observable query-answering service over sources."""

    def __init__(
        self,
        collection: Optional[SourceCollection] = None,
        domain: Sequence = (),
        *,
        config: Optional[SchedulerConfig] = None,
        memo: Optional[LRUMemo] = None,
        gateway: Optional[PerSourceGateway] = None,
    ):
        sources = tuple(collection) if collection is not None else ()
        self.registry = SourceRegistry(sources, domain)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.gateway = gateway if gateway is not None else PerSourceGateway()
        self.scheduler = RequestScheduler(
            self.registry,
            gateway=self.gateway,
            metrics=self.metrics,
            tracer=self.tracer,
            config=config,
            memo=memo,
        )

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "MediatorService":
        """Start the scheduler's batching worker on the running loop."""
        await self.scheduler.start()
        return self

    async def stop(self) -> None:
        """Stop the batching worker; requests still queued are rejected."""
        await self.scheduler.stop()

    async def __aenter__(self) -> "MediatorService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- querying ----------------------------------------------------------------

    async def confidence(
        self, facts, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """Exact confidences of *facts*, answered against one snapshot."""
        return await self.scheduler.request(facts, timeout=timeout)

    async def answer(
        self, query, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """A conjunctive query's certain-answer lower bound, one snapshot.

        The query is compiled through ``repro.plan`` and evaluated over the
        snapshot's confidence-1 facts; ``response.answers`` carries the
        (sound, under-approximate) certain answers. Queries ride the same
        admission queue, deadlines, and batching as confidence requests.
        """
        return await self.scheduler.request((), timeout=timeout, query=query)

    async def submit(self, facts, timeout: Optional[float] = None, query=None):
        """Admit without awaiting (returns the response future)."""
        return await self.scheduler.submit(facts, timeout=timeout, query=query)

    # -- registry mutations (thread-safe; retire the old version's contexts) ----
    #
    # Each one raises SourceError with the head unchanged when the new
    # collection fails repro.confidence.blocks.check_identity_collection.

    def register_source(self, source: SourceDescriptor) -> RegistryDiff:
        """Add *source*, or raise ``SourceError`` with the head unchanged
        (its name is taken, or the new collection is invalid)."""
        _snapshot, diff = self.registry.register(source)
        self._after_mutation(diff)
        return diff

    def update_source(self, source: SourceDescriptor) -> RegistryDiff:
        """Replace the source of *source*'s name, or raise ``SourceError``
        with the head unchanged (no such name, or an invalid collection)."""
        _snapshot, diff = self.registry.update(source)
        self._after_mutation(diff)
        return diff

    def deregister_source(self, name: str) -> RegistryDiff:
        """Remove the source *name*, or raise ``SourceError`` with the head
        unchanged when no source has that name."""
        _snapshot, diff = self.registry.deregister(name)
        self._after_mutation(diff)
        return diff

    def set_domain(self, domain: Sequence) -> RegistryDiff:
        """Replace the domain, or raise ``SourceError`` with the head
        unchanged when an extension constant falls outside it."""
        _snapshot, diff = self.registry.set_domain(domain)
        self._after_mutation(diff)
        return diff

    def _after_mutation(self, diff: RegistryDiff) -> None:
        """Retire the superseded versions' contexts after one registry diff.

        Their derived plan state (statistics, data sources, shard
        fragments) lives on their fact sets and leaves with them. The
        engine memo is left alone: its keys are the counting problems
        themselves, so no line can go stale.
        """
        self.scheduler.retire_versions(diff.new_version)
        self.metrics.counter("registry_mutations").inc()
        self.metrics.gauge("registry_version").set(diff.new_version)

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One JSON-serializable snapshot of everything observable.

        Shape (validated by ``tools/check_service_snapshot.py``)::

            {"registry": {...}, "metrics": {counters, gauges, histograms},
             "gateway": {reads, lanes}, "tracing": {...},
             "plan": {cache, data_sources_built, statistics, optimizer},
             "shard": {shards, counters},
             "cache": {budget_bytes, bytes, hits, misses, evictions,
                       invalidations, caches: {name: {...}}},
             "resilience": {sources, transitions, config}}
        """
        from repro.plan import plan_stats
        from repro.shard import shard_stats

        snapshot = self.registry.snapshot()
        return {
            "registry": {
                "version": snapshot.version,
                "sources": len(snapshot.collection),
                "domain_size": len(snapshot.domain),
            },
            "metrics": self.metrics.snapshot(),
            "gateway": {
                "reads": self.gateway.reads,
                "lanes": self.gateway.stats(),
            },
            "tracing": {
                "spans_started": self.tracer.spans_started,
                "spans_dropped": self.tracer.spans_dropped,
                "recent_spans": len(self.tracer.export()),
            },
            "plan": plan_stats(),
            "shard": {
                "shards": self.scheduler.config.shards,
                "counters": shard_stats(),
            },
            "cache": cache_registry().stats(),
            "resilience": self.scheduler.resilience.stats(),
        }

    def recent_spans(self) -> List[Dict[str, object]]:
        """The tracer's retained spans, oldest first."""
        return self.tracer.export()
