"""Admission, batching, deadlines, availability: the service's event loop.

One asyncio worker drains a bounded admission queue. The control flow per
iteration:

1. **admit** — :meth:`RequestScheduler.submit` pins the current registry
   snapshot, stamps the deadline, and enqueues; a full queue rejects
   *immediately* with an explicit reason (load shedding at the door beats
   queueing work that will only time out).
2. **batch** — the worker takes the oldest request, then lingers up to
   ``batch_window`` collecting more requests pinned to the *same* snapshot
   version (compatibility criterion), up to ``max_batch``. One engine call
   serves the whole batch: every covered fact's confidence comes from one
   counting sweep (or one memo line), so k requests cost far less than k
   dispatches — E16 measures the margin.
3. **expire** — requests whose deadline passed while queued are answered
   ``TIMEOUT`` before any work is spent on them; deadlines are re-checked
   after compute so a slow read never converts into a silently late answer.
4. **read** — the per-source availability pass of
   :class:`~repro.resilience.manager.ResilienceManager` probes every
   source of the batch's snapshot through its gateway lane: circuit
   breakers, per-source timeouts, and the service's one retry loop
   (transient errors re-launched, slow probes hedged). Unavailable
   sources are *excluded* rather than failing the batch.
5. **compute & resolve** — exact confidences from the snapshot's engine;
   when sources were excluded, the engine runs over the snapshot with
   those annotations demoted (``repro.resilience.degrade``) and responses
   carry ``degraded`` / ``excluded_sources`` / per-answer guarantee
   metadata; every future resolves with a :class:`ServiceResponse`, never
   an exception. A fault outside :class:`~repro.exceptions.ReproError`
   fails only its own batch: those requests are answered ``ERROR``, the
   traceback is logged, ``internal_errors`` counts it, and the worker
   serves on.

Everything observable lands in the shared :class:`MetricsRegistry` (queue
depth, batch sizes, per-status latency histograms, probe and hedge counts,
breaker transitions) and the :class:`Tracer` (per-batch ``source_read`` /
``engine`` spans).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.confidence.engine import ConfidenceEngine
from repro.confidence.engine.memo import LRUMemo
from repro.resilience.manager import ResilienceConfig, ResilienceManager
from repro.service.faults import PerSourceGateway
from repro.service.metrics import MetricsRegistry
from repro.service.registry import RegistrySnapshot, SourceRegistry
from repro.service.requests import (
    ConfidenceRequest,
    RequestStatus,
    ServiceResponse,
)
from repro.service.tracing import Tracer

_LOG = logging.getLogger(__name__)

#: No sources excluded: the well-known key suffix of healthy contexts.
NO_EXCLUSIONS: FrozenSet[str] = frozenset()

#: Snapshot contexts kept open at once; superseded versions are retired
#: earlier, on the registry mutation that supersedes them.
MAX_CONTEXTS = 8


def _context_key_order(key: Tuple[int, FrozenSet[str]]):
    """Total order for (version, excluded) context keys — frozensets are
    not orderable, so eviction sorts by (version, size, sorted names)."""
    return (key[0], len(key[1]), tuple(sorted(key[1])))


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs of the request path.

    ``max_batch = 1`` disables micro-batching (per-request dispatch, the
    E16 baseline); ``batch_window`` is how long the worker lingers for
    batch-mates once it holds a request — zero means "batch only what is
    already queued".
    """

    max_queue: int = 256
    max_batch: int = 16
    batch_window: float = 0.002
    #: memo capacity per engine when the scheduler has no explicit memo
    #: (None = process-wide shared memo, 0 = memoization off — E16's ablation)
    engine_cache_size: Optional[int] = None
    #: shards for the query path's certain database (1 = single store)
    shards: int = 1
    #: the per-source availability pass: timeouts, retries, breakers
    resilience: ResilienceConfig = ResilienceConfig()

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


class SnapshotContext:
    """What one (snapshot version, excluded sources) state computes with.

    ``snapshot`` is the working snapshot: the pinned one, or — with
    sources excluded — its demoted twin, which shares the version (callers
    still see the snapshot they pinned) but carries the collection with
    the excluded sources' bounds weakened to ⟨0, 0⟩. ``engine`` counts
    over it and, with a memo, keeps its covered-fact confidences, so only
    the context's first batch keys or counts. The certain database and the
    shard executor are built on first use and stay ``None`` until then.
    """

    __slots__ = ("snapshot", "engine", "certain_db", "executor", "_config")

    def __init__(
        self,
        snapshot: RegistrySnapshot,
        excluded: FrozenSet[str],
        config: SchedulerConfig,
        memo: Optional[LRUMemo],
    ):
        if excluded:
            from repro.resilience.degrade import demote

            snapshot = RegistrySnapshot(
                version=snapshot.version,
                collection=demote(snapshot.collection, excluded),
                domain=snapshot.domain,
            )
        self.snapshot = snapshot
        self.engine = ConfidenceEngine(
            snapshot.instance(),
            memo=memo,
            cache_size=config.engine_cache_size,
        )
        self.certain_db: Optional[GlobalDatabase] = None
        self.executor = None
        self._config = config

    def certain_database(self) -> GlobalDatabase:
        """The working snapshot's confidence-1 facts as one database."""
        if self.certain_db is None:
            self.certain_db = GlobalDatabase(
                f for f, confidence in self.engine.confidences().items()
                if confidence == 1
            )
        return self.certain_db

    def shard_executor(self):
        """Scatter-gather over a partition of :meth:`certain_database`.

        The sharded store partitions the same certain database the
        single-store path queries; fragments and their plan-layer caches
        are shared by every batch of this context.
        """
        if self.executor is None:
            from repro.shard import PartitionSpec, ShardedDatabase, ShardExecutor

            store = ShardedDatabase(
                self.certain_database(), PartitionSpec(self._config.shards)
            )
            self.executor = ShardExecutor(store)
        return self.executor


class RequestScheduler:
    """The admission queue and its single batching worker."""

    def __init__(
        self,
        registry: SourceRegistry,
        gateway: Optional[PerSourceGateway] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        config: Optional[SchedulerConfig] = None,
        memo: Optional[LRUMemo] = None,
    ):
        self.registry = registry
        self.gateway = gateway if gateway is not None else PerSourceGateway()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.config = config if config is not None else SchedulerConfig()
        self.memo = memo
        self.resilience = ResilienceManager(
            self.config.resilience, metrics=self.metrics
        )
        self._queue: Optional[asyncio.Queue] = None
        self._carry: Optional[Tuple[ConfidenceRequest, RegistrySnapshot,
                                    "asyncio.Future"]] = None
        self._inflight: List = []
        self._worker: Optional[asyncio.Task] = None
        # Keyed (version, excluded-source frozenset): a degraded batch
        # computes over the *demoted* snapshot, which is a different
        # instance than the healthy one at the same version.
        self._contexts: Dict[Tuple[int, FrozenSet[str]], SnapshotContext] = {}
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Open the admission queue and start the worker (idempotent)."""
        if self._running:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._carry = None
        self._running = True
        self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop the worker; queued-but-unanswered requests are rejected."""
        if not self._running:
            return
        self._running = False
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            except Exception:  # worker bug: still reject its in-flight batch
                pass
            self._worker = None
        leftovers = [
            item for item in self._inflight if not item[2].done()
        ]
        self._inflight = []
        if self._carry is not None:
            leftovers.append(self._carry)
            self._carry = None
        while self._queue is not None and not self._queue.empty():
            leftovers.append(self._queue.get_nowait())
        for request, _snapshot, future in leftovers:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason="service stopped before the request was served",
                    snapshot_version=request.snapshot_version,
                ),
            )
        self._contexts.clear()

    # -- admission ---------------------------------------------------------------

    async def submit(
        self, facts, timeout: Optional[float] = None, query=None
    ) -> "asyncio.Future[ServiceResponse]":
        """Admit one request; returns a future resolving to its response.

        The registry snapshot is pinned *here*: mutations landing after
        admission are invisible to this request (snapshot isolation).
        A request may ask for fact confidences, a conjunctive query's
        certain-answer lower bound, or both — but not neither.
        """
        if self._queue is None:
            raise ReproError("scheduler is not started")
        loop = asyncio.get_running_loop()
        now = loop.time()
        snapshot = self.registry.snapshot()
        request = ConfidenceRequest(
            facts=tuple(facts),
            deadline=None if timeout is None else now + timeout,
            snapshot_version=snapshot.version,
            submitted_at=now,
            query=query,
        )
        future: "asyncio.Future[ServiceResponse]" = loop.create_future()
        self.metrics.counter("requests_submitted").inc()
        if not request.facts and request.query is None:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason="empty fact list",
                    snapshot_version=snapshot.version,
                ),
            )
            return future
        try:
            self._queue.put_nowait((request, snapshot, future))
        except asyncio.QueueFull:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason=(
                        f"admission queue full "
                        f"({self.config.max_queue} requests waiting)"
                    ),
                    snapshot_version=snapshot.version,
                ),
            )
            return future
        self.metrics.gauge("queue_depth").set(self._queue.qsize())
        return future

    async def request(
        self, facts, timeout: Optional[float] = None, query=None
    ) -> ServiceResponse:
        """Submit and await in one call."""
        return await (await self.submit(facts, timeout=timeout, query=query))

    # -- the worker --------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            batch = await self._collect_batch()
            if batch:
                await self._serve_batch(batch)

    async def _collect_batch(self):
        """The oldest request plus same-version batch-mates."""
        queue = self._queue
        if self._carry is not None:
            first, self._carry = self._carry, None
        else:
            first = await queue.get()
        batch = [first]
        version = first[0].snapshot_version
        window = self.config.batch_window
        loop = asyncio.get_running_loop()
        linger_until = loop.time() + window
        while len(batch) < self.config.max_batch:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = linger_until - loop.time()
                if remaining <= 0 or window <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item[0].snapshot_version != version:
                # Incompatible: becomes the seed of the next batch.
                self._carry = item
                break
            batch.append(item)
        self.metrics.gauge("queue_depth").set(queue.qsize())
        return batch

    async def _serve_batch(self, batch) -> None:
        # Cleared only on completion: if the worker is cancelled mid-batch,
        # stop() finds the batch here and rejects its futures.
        self._inflight = batch
        try:
            await self._serve_batch_inner(batch)
        except Exception as exc:
            # A fault outside the modelled ReproError path fails this batch,
            # not the worker: every later request is still served.
            _LOG.exception("batch of %d requests failed", len(batch))
            self.metrics.counter("internal_errors").inc()
            now = asyncio.get_running_loop().time()
            for request, _snapshot, future in batch:
                if not future.done():
                    self._resolve(
                        request, future,
                        ServiceResponse(
                            request.request_id, RequestStatus.ERROR,
                            reason=(
                                f"internal error: {type(exc).__name__}: {exc}"
                            ),
                            snapshot_version=request.snapshot_version,
                            latency=now - request.submitted_at,
                            batch_size=len(batch),
                        ),
                    )
        self._inflight = []

    async def _serve_batch_inner(self, batch) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live = []
        for request, snapshot, future in batch:
            if request.expired(now):
                self._resolve(
                    request, future,
                    ServiceResponse(
                        request.request_id, RequestStatus.TIMEOUT,
                        reason="deadline expired while queued",
                        snapshot_version=request.snapshot_version,
                        latency=now - request.submitted_at,
                    ),
                )
            else:
                live.append((request, snapshot, future))
        if not live:
            return
        self.metrics.histogram("batch_size").observe(len(live))
        snapshot = live[0][1]
        with self.tracer.span(
            "batch", version=snapshot.version, size=len(live)
        ) as span:
            with span.child("source_read", version=snapshot.version) as read:
                report = await self.resilience.resolve(snapshot, self.gateway)
                read.attributes.update(
                    probed=report.probed,
                    short_circuited=report.short_circuited,
                    excluded=len(report.excluded),
                    retried=report.retried,
                )
            excluded = frozenset(report.excluded)
            if excluded:
                self.metrics.counter("degraded_batches").inc()
                span.attributes["excluded_sources"] = sorted(excluded)
            try:
                context = self._context(snapshot, excluded)
                confidences = self._compute(context, live, span)
                answers, downgraded = self._answer_queries(
                    snapshot, context, live, span
                )
            except ReproError as exc:
                now = loop.time()
                for request, _snapshot, future in live:
                    self._resolve(
                        request, future,
                        ServiceResponse(
                            request.request_id, RequestStatus.ERROR,
                            reason=str(exc),
                            snapshot_version=snapshot.version,
                            latency=now - request.submitted_at,
                            batch_size=len(live),
                            attempts=report.attempts,
                        ),
                    )
                return
            now = loop.time()
            for request, _snapshot, future in live:
                if request.expired(now):
                    response = ServiceResponse(
                        request.request_id, RequestStatus.TIMEOUT,
                        reason="deadline expired during computation",
                        snapshot_version=snapshot.version,
                        latency=now - request.submitted_at,
                        batch_size=len(live),
                        attempts=report.attempts,
                    )
                else:
                    response = ServiceResponse(
                        request.request_id, RequestStatus.OK,
                        confidences={
                            f: confidences[f] for f in request.facts
                        },
                        snapshot_version=snapshot.version,
                        latency=now - request.submitted_at,
                        batch_size=len(live),
                        attempts=report.attempts,
                        answers=answers.get(request.request_id, ()),
                        degraded=bool(excluded),
                        excluded_sources=report.excluded,
                        guarantee="degraded" if excluded else "certain",
                        downgraded_answers=downgraded.get(
                            request.request_id, ()
                        ),
                    )
                self._resolve(request, future, response)

    def _compute(
        self, context: SnapshotContext, live, span
    ) -> Dict[Atom, Fraction]:
        """Exact confidences for every fact the batch asks about.

        With sources excluded the context's engine runs over the snapshot
        with those sources' annotations demoted to ⟨c=0, s=0⟩: their
        extensions stay in the fact space (confidences of their facts
        remain well-defined) but their bounds no longer constrain the
        possible worlds. The engine keeps its covered-fact confidences, so
        after a context's first batch this reads them without counting.
        """
        engine = context.engine
        wanted = {f for request, _s, _f in live for f in request.facts}
        with span.child(
            "engine", version=context.snapshot.version, facts=len(wanted)
        ):
            self.metrics.counter("engine_calls").inc()
            covered = engine.confidences()
            relation = engine.instance.relation
            confidences: Dict[Atom, Fraction] = {}
            for f in wanted:
                confidence = covered.get(Atom(relation, f.args))
                if confidence is None:
                    # Anonymous or out-of-space fact: two memoized counts.
                    confidence = engine.confidence(f)
                confidences[f] = confidence
        return confidences

    def _answer_queries(
        self, snapshot: RegistrySnapshot, context: SnapshotContext, live,
        span,
    ) -> Tuple[Dict[int, Tuple[Atom, ...]], Dict[int, Tuple[Atom, ...]]]:
        """Certain-answer lower bounds for the batch's query requests.

        The snapshot's confidence-1 facts form a database contained in every
        possible world, so by monotonicity any conjunctive answer over it is
        certain (cf. ``repro.confidence.answers.certain_answer_lower_bound``).
        The query runs through the compiled-plan pipeline over *context*'s
        certain database, built once per context, so batch-mates and repeat
        queries share its scan rows and join indexes. With ``config.shards
        > 1`` execution scatter-gathers over the context's sharded store.

        Returns ``(answers, downgraded)`` keyed by request id. When
        *context* excludes sources the answers come from the *demoted*
        snapshot —
        poss(S') ⊇ poss(S), so they stay a sound (certain) subset of the
        healthy answers — and ``downgraded`` holds the healthy-minus-
        degraded difference: answers the lost sources' annotations were
        needed to certify, now merely possible. Both render in the
        canonical total order (:func:`repro.shard.merge.canonical_order`)
        — ``key=str`` is not total over heterogeneous constants, so equal
        answer sets could serialize differently across runs.
        """
        queried = [
            request for request, _snapshot, _future in live
            if request.query is not None
        ]
        out: Dict[int, Tuple[Atom, ...]] = {}
        downgraded_out: Dict[int, Tuple[Atom, ...]] = {}
        if not queried:
            return out, downgraded_out
        from repro.plan import evaluate as plan_evaluate, optimizer_stats
        from repro.resilience.degrade import downgraded as grade_downgraded
        from repro.shard import canonical_order, shard_stats

        sharded = self.config.shards > 1
        executor = context.shard_executor() if sharded else None
        database = None if sharded else context.certain_database()
        # A demoted context (its own snapshot) grades what the demotion
        # cost against the healthy context's certain DB.
        full_database = (
            self._context(snapshot).certain_database()
            if context.snapshot is not snapshot else None
        )
        with span.child(
            "query_answers", version=snapshot.version, queries=len(queried)
        ):
            self.metrics.counter("query_requests").inc(len(queried))
            before = optimizer_stats()
            shard_before = shard_stats() if sharded else {}
            for request in queried:
                if executor is not None:
                    answers = executor.answer_ordered(request.query)
                else:
                    answers = canonical_order(
                        plan_evaluate(request.query, database)
                    )
                out[request.request_id] = answers
                if full_database is not None:
                    full = plan_evaluate(request.query, full_database)
                    downgraded_out[request.request_id] = grade_downgraded(
                        full, answers
                    )
            self._record_optimizer_metrics(before, optimizer_stats())
            if sharded:
                self._record_shard_metrics(shard_before, shard_stats())
        return out, downgraded_out

    def _record_shard_metrics(self, before: Dict, after: Dict) -> None:
        """Fold this batch's shard-execution deltas into the metrics."""
        for name in (
            "queries",
            "fragments_executed",
            "shards_pruned",
        ):
            delta = (after.get(name) or 0) - (before.get(name) or 0)
            if delta:
                self.metrics.counter(f"shard_{name}").inc(delta)

    def _record_optimizer_metrics(self, before: Dict, after: Dict) -> None:
        """Fold this batch's optimizer activity into the metrics registry.

        The optimizer's counters are process-wide; the per-batch *delta* is
        what this service instance actually caused, so that is what lands in
        its :class:`MetricsRegistry` (``plan_misestimates``,
        ``plan_reoptimizations``, ...).
        """
        for name in (
            "plans_optimized",
            "feedback_checks",
            "misestimates",
            "reoptimizations",
        ):
            delta = (after.get(name) or 0) - (before.get(name) or 0)
            if delta:
                self.metrics.counter(f"plan_{name}").inc(delta)
        max_q = after.get("max_q_error")
        if max_q and max_q != before.get("max_q_error"):
            self.metrics.histogram("plan_q_error").observe(max_q)

    def _context(
        self, snapshot: RegistrySnapshot,
        excluded: FrozenSet[str] = NO_EXCLUSIONS,
    ) -> SnapshotContext:
        """The open context of (*snapshot*'s version, *excluded*).

        At most :data:`MAX_CONTEXTS` stay open; past that the oldest
        (lowest version first) is dropped — never the one just opened.
        """
        key = (snapshot.version, excluded)
        context = self._contexts.get(key)
        if context is None:
            context = SnapshotContext(snapshot, excluded, self.config, self.memo)
            self._contexts[key] = context
            while len(self._contexts) > MAX_CONTEXTS:
                oldest = min(self._contexts, key=_context_key_order)
                if oldest == key:
                    break
                del self._contexts[oldest]
        return context

    def retire_versions(self, before_version: int) -> None:
        """Drop the contexts of versions before *before_version*.

        Superseded versions will never serve another request, so their
        contexts — engine, certain database, shard executor — are dropped
        here. The plan-layer state built from them (data sources,
        statistics, shard fragments) lives on their fact sets and is freed
        with them. Retired sharded stores are counted under
        ``shard_stores_discarded``.
        """
        stores = 0
        for key in [k for k in self._contexts if k[0] < before_version]:
            stores += self._contexts.pop(key).executor is not None
        if stores:
            self.metrics.counter("shard_stores_discarded").inc(stores)

    # -- resolution --------------------------------------------------------------

    def _resolve(self, request, future, response: ServiceResponse) -> None:
        self.metrics.counter(f"responses_{response.status.value}").inc()
        if response.degraded:
            self.metrics.counter("responses_degraded").inc()
        self.metrics.histogram("latency").observe(response.latency)
        self.metrics.histogram(
            f"latency_{response.status.value}"
        ).observe(response.latency)
        if not future.done():
            future.set_result(response)
