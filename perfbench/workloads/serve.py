"""``serve``: the paper's §1.1 deployment — a mediator whose sources update
and fail while queries run.

An open loop at a fixed rate against one ``MediatorService`` over eight
identity-view sources, two of them sound (s = 1). One sound source is
crashed from t = 0 and the service runs with ``ResilienceConfig`` and a
``PerSourceGateway``, the read path ROADMAP item 3 keeps; its per-source
timeout is generous, so healthy probes never time out and every response
excludes exactly the crashed source. Four of every five requests ask the
confidence of two covered facts, the fifth is a certain-answer CQ, and
every ``UPDATE_EVERY`` requests one noisy source drops a fact or gets it
back and re-declares its bounds — always a consistent collection.

This is the only workload that reaches ``repro.service``,
``repro.resilience``, the registry diff and the cache invalidation bus.
The working set fits the caches (the counting tasks of two collection
states, demoted and healthy, in the 4096-entry memo), so service overhead
sets ``p50_ms``; the event-loop-blocking recompute after each update sets
``tail_ms``. Latency is timed from each request's due time, so a stall is
charged to every request it delays.

Every update toggles the same source, so after the two untimed warm-up
updates each timed update recomputes only the signature blocks the diff
touched (the memo still holds the other state's untouched blocks) and
every update costs about the same. ``tail_ms`` is the median over the
run's updates of the slowest response after each one: a percentile over
all requests would sit on the queueing ramps behind a handful of stalls
and follow the host's speed during those few stalls.
"""

from __future__ import annotations

import asyncio
import bisect
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.confidence import ConfidenceEngine, certain_answer_lower_bound
from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.resilience import ResilienceConfig, demote
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    SchedulerConfig,
)
from repro.sources import SourceCollection, SourceDescriptor
from repro.workloads.perturb import slack_bound
from repro.workloads.random_sources import consistent_identity_collection

from perfbench.common import Digest, OpLog, nearest_rank, rng_for

#: Offered load, requests per second (well under measured capacity).
RATE = 100.0

#: Requests between two source updates (a 0.5 s interval; the recompute
#: stalls about a tenth of it).
UPDATE_EVERY = 50

#: The source every update toggles, and the updates applied during warm-up
#: (the first visit of each of its two states recomputes every block).
UPDATED_SOURCE = "S1"
WARM_UPDATES = 2

#: Every QUERY_EVERY-th request is a certain-answer CQ.
QUERY_EVERY = 5

SIZES = {
    "full": {"universe": 20, "truth": 8, "noisy": 6, "sound": 2,
             "drop": 0.2, "corrupt": 0.1, "slack": 0.2, "shape_seed": 0},
    "tiny": {"universe": 8, "truth": 4, "noisy": 2, "sound": 1,
             "drop": 0.2, "corrupt": 0.1, "slack": 0.2, "shape_seed": 0},
}

class Request:
    __slots__ = ("cls", "facts", "query")

    def __init__(self, cls, facts, query):
        self.cls = cls
        self.facts = facts
        self.query = query


class Inputs:
    def __init__(self, seed: int, scale: str):
        p = self.params = SIZES[scale]
        self.seed = seed
        # The collection is the same for every seed (only the traffic is
        # seeded): the counting cost of an update's recompute, which sets
        # tail_ms, then does not vary with the seed.
        shape = rng_for(p["shape_seed"], "serve", "collection")
        noisy, truth, domain = consistent_identity_collection(
            p["noisy"], p["universe"], p["truth"],
            drop_rate=p["drop"], corrupt_rate=p["corrupt"],
            slack=p["slack"], rng=shape,
        )
        true_values = sorted(f.args[0].value for f in truth)
        self.truth = frozenset(true_values)
        sources = list(noisy)
        for k in range(p["sound"]):
            name = f"S{p['noisy'] + k + 1}"
            view = f"V{p['noisy'] + k + 1}"
            held = shape.sample(true_values, max(1, len(true_values) // 2))
            sources.append(SourceDescriptor(
                identity_view(view, "R", 1),
                [fact(view, value) for value in sorted(held)],
                slack_bound(Fraction(len(held), len(true_values)), p["slack"]),
                1, name=name,
            ))
        self.collection = SourceCollection(sources)
        self.domain = list(domain)
        #: the first sound source is hard down for the whole run
        self.crashed = f"S{p['noisy'] + 1}"
        self.covered = sorted({
            fact("R", f.args[0].value)
            for source in self.collection for f in source.extension
        })
        picked = rng_for(seed, "serve", "queries").sample(self.covered, 3)
        self.queries = [parse_rule("ans(x) <- R(x)")] + [
            parse_rule(f"ans(x) <- R(x), R('{f.args[0].value}')")
            for f in picked
        ]

    def record(self):
        """Run-record fields: the offered load and how late the generator ran."""
        lags = sorted(getattr(self, "lags", ()))
        return {
            "offered_rate": RATE,
            "update_every": UPDATE_EVERY,
            "updated_source": UPDATED_SOURCE,
            "warm_updates": WARM_UPDATES,
            "versions": len(getattr(self, "versions", ())),
            "loadgen_lag_ms_p99": nearest_rank(lags, 0.99)[0] * 1000 if lags else 0.0,
        }

    def service_metrics(self, spans, log):
        """Per-layer numbers read from ``MediatorService.stats()`` and from the
        ``resilience.resolve`` spans, which open at every batch start."""
        metrics = self.service_stats["metrics"]
        counters, histograms = metrics["counters"], metrics["histograms"]
        batch = histograms.get("batch_size", {})
        touched = histograms.get("touched_blocks", {})
        ok = counters.get("responses_ok", 0)
        short = counters.get("breaker_short_circuits", 0)
        probed_down = (counters.get("source_probe_failures", 0)
                       + counters.get("source_probe_timeouts", 0))
        nid = spans.name_ids.get("resilience.resolve")
        starts = sorted(spans.start[i] for i in range(len(spans))
                        if spans.name[i] == nid)
        waited = served = 0.0
        for submitted, done in zip(self.submitted, self.done):
            k = bisect.bisect_right(starts, done) - 1
            if k >= 0 and starts[k] >= submitted:
                waited += starts[k] - submitted
            served += done - submitted
        lag_p99 = nearest_rank(sorted(self.lags), 0.99)[0] if self.lags else 0.0
        return {
            "service.wait_pct": 100.0 * waited / served if served else 0.0,
            "service.batch_mean": batch.get("mean") or 0.0,
            "service.batches": batch.get("count", 0),
            "registry.mutations": counters.get("registry_mutations", 0),
            "registry.touched_blocks_mean": touched.get("mean") or 0.0,
            "resilience.degraded_share": (
                100.0 * counters.get("responses_degraded", 0) / ok if ok else 0.0),
            "resilience.short_circuit_ratio": (
                100.0 * short / (short + probed_down) if short + probed_down else 0.0),
            "loadgen.lag_pct": 100.0 * lag_p99 * RATE,
        }

    def request(self, i: int) -> Request:
        rng = rng_for(self.seed, "serve", "request", i)
        if i % QUERY_EVERY == QUERY_EVERY - 1:
            return Request("query", (), self.queries[rng.randrange(len(self.queries))])
        return Request("confidence", tuple(rng.sample(self.covered, 2)), None)

    def update(self, collection: SourceCollection) -> SourceDescriptor:
        """The next update: :data:`UPDATED_SOURCE` drops its first fact or
        gets it back, and re-declares its bounds as measured against the
        hidden world (less the slack), so the collection stays consistent
        and the update moves confidences."""
        name = UPDATED_SOURCE
        original = self.collection.by_name(name)
        current = collection.by_name(name)
        extension = sorted(original.extension)
        if current.extension == original.extension:
            extension = extension[1:]
        held = {f.args[0].value for f in extension} & self.truth
        slack = self.params["slack"]
        return SourceDescriptor(
            original.view, extension,
            slack_bound(Fraction(len(held), len(self.truth)), slack),
            slack_bound(Fraction(len(held), len(extension)), slack),
            name=name,
        )


def build(seed: int, scale: str) -> Inputs:
    return Inputs(seed, scale)


def digest(inputs: Inputs) -> str:
    d = Digest()
    d.add(sorted(inputs.params.items()), RATE, UPDATE_EVERY, UPDATED_SOURCE,
          WARM_UPDATES, inputs.crashed)
    d.add(*inputs.domain)
    d.add_collection(inputs.collection)
    for i in range(2 * UPDATE_EVERY):
        request = inputs.request(i)
        d.add(request.cls, *request.facts, request.query)
    collection = inputs.collection
    for j in range(1, 4):
        source = inputs.update(collection)
        collection = _replace(collection, source)
        d.add(j)
        d.add_collection(collection)
    return d.hexdigest()


def _replace(collection: SourceCollection, source) -> SourceCollection:
    return SourceCollection(
        source if s.name == source.name else s for s in collection
    )


def warm(inputs: Inputs) -> None:
    """Nothing to do before the service exists; ``run`` warms it up."""


def make_service(inputs: Inputs) -> MediatorService:
    gateway = PerSourceGateway(
        policies={inputs.crashed: FaultPolicy(crash=True)}, seed=inputs.seed
    )
    return MediatorService(
        inputs.collection, inputs.domain,
        # No batching linger: at this rate batches rarely form, and a 2 ms
        # timer on every request's path would make p50 follow timer
        # wake-up jitter rather than the service's own work.
        config=SchedulerConfig(
            batch_window=0.0,
            resilience=ResilienceConfig(source_timeout=5.0),
        ),
        gateway=gateway,
    )


def run(inputs: Inputs, seconds: float, log: OpLog) -> float:
    return asyncio.run(_drive(inputs, seconds, log))


async def _drive(inputs: Inputs, seconds: float, log: OpLog) -> float:
    service = make_service(inputs)
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    async with service:
        versions = {service.registry.version(): inputs.collection}
        collection = inputs.collection
        # Warm-up: the initial version's counting and certain database,
        # the crashed source's breaker, and both states of the updated
        # source (demoted and healthy engines alike).
        for w in range(WARM_UPDATES + 1):
            if w:
                source = inputs.update(collection)
                collection = _replace(collection, source)
                versions[service.update_source(source).new_version] = collection
            for i in range(QUERY_EVERY * 2):
                request = inputs.request(-1 - i - w * QUERY_EVERY * 2)
                await (await service.submit(request.facts, query=request.query))
        n = int(round(RATE * seconds))
        submitted: List[float] = [0.0] * n
        done: List[float] = [0.0] * n
        lags: List[float] = [0.0] * n
        requests: List[Request] = []
        futures = []
        log.t_first = time.monotonic()
        start = loop.time()
        origin = clock()
        for i in range(n):
            due = i / RATE
            delay = start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if i and i % UPDATE_EVERY == 0:
                source = inputs.update(collection)
                collection = _replace(collection, source)
                diff = service.update_source(source)
                versions[diff.new_version] = collection
            request = inputs.request(i)
            requests.append(request)
            now = clock() - origin
            lags[i] = now - due
            submitted[i] = now
            future = await service.submit(request.facts, query=request.query)
            future.add_done_callback(_stamp(done, i, clock, origin))
            futures.append(future)
            if log.sampler is not None:
                log.sampler()
        responses = await asyncio.gather(*futures)
        wall = max(done) if n else 0.0
        log.windows.append((origin, origin + wall))
        inputs.service_stats = service.stats()
    inputs.versions = versions
    inputs.lags = lags
    inputs.submitted = [origin + t for t in submitted]
    inputs.done = [origin + t for t in done]
    sampler, log.sampler = log.sampler, None
    for i, (request, response) in enumerate(zip(requests, responses)):
        log.record(request.cls, done[i] - i / RATE, response.ok,
                   (request, response))
    log.sampler = sampler
    return wall


def tail(inputs: Inputs, log: OpLog) -> Dict[str, object]:
    """``tail_ms``: the slowest response in each update's interval (the
    requests from the update to the next one), median over the updates."""
    latencies = log.latencies
    peaks = []
    classes: Dict[str, int] = {}
    for start in range(UPDATE_EVERY, len(latencies), UPDATE_EVERY):
        window = range(start, min(start + UPDATE_EVERY, len(latencies)))
        slowest = max(window, key=latencies.__getitem__)
        peaks.append(latencies[slowest])
        classes[log.classes[slowest]] = classes.get(log.classes[slowest], 0) + 1
    return {
        "tail_ms": statistics.median(peaks) * 1000.0 if peaks else 0.0,
        "tail_rule": "median over updates of the slowest response after each",
        "tail_samples": len(peaks),
        "classes_at_tail": dict(sorted(classes.items())),
    }


def _stamp(done: List[float], i: int, clock, origin):
    def callback(_future) -> None:
        done[i] = clock() - origin
    return callback


class Oracle:
    """Expected outputs per (collection state, excluded sources), computed
    once: the toggled source makes versions repeat the same two states."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._confidences: Dict[tuple, dict] = {}
        self._answers: Dict[tuple, Tuple[frozenset, frozenset]] = {}

    def _state(self, version: int) -> tuple:
        return tuple(
            (source.name, str(source.view),
             tuple(sorted(str(f) for f in source.extension)),
             source.completeness_bound, source.soundness_bound)
            for source in sorted(self.inputs.versions[version],
                                 key=lambda s: s.name)
        )

    def confidences(self, version: int, excluded: Tuple[str, ...]):
        key = (self._state(version), excluded)
        if key not in self._confidences:
            collection = demote(self.inputs.versions[version], excluded)
            self._confidences[key] = ConfidenceEngine(
                collection, self.inputs.domain, cache_size=0
            ).confidences()
        return self._confidences[key]

    def answers(self, version: int, excluded: Tuple[str, ...], query):
        key = (self._state(version), excluded, str(query))
        if key not in self._answers:
            full = self.inputs.versions[version]
            domain = self.inputs.domain
            kept = certain_answer_lower_bound(
                query, demote(full, excluded), domain
            )
            lost = certain_answer_lower_bound(query, full, domain) - kept
            self._answers[key] = (frozenset(kept), frozenset(lost))
        return self._answers[key]


def check(inputs: Inputs, log: OpLog) -> List[str]:
    """Each OK response against the collection at its reported version,
    with its reported exclusions demoted."""
    oracle = Oracle(inputs)
    expected_excluded = (inputs.crashed,)
    mismatches: List[str] = []
    for i, output in enumerate(log.outputs):
        request, response = output
        if not response.ok:
            continue
        excluded = tuple(response.excluded_sources)
        version = response.snapshot_version
        if excluded != expected_excluded or response.degraded != bool(excluded):
            mismatches.append(f"request {i}: excluded {excluded}, expected "
                              f"{expected_excluded}")
        if version not in inputs.versions:
            mismatches.append(f"request {i}: unknown version {version}")
            continue
        if request.query is None:
            expected = oracle.confidences(version, excluded)
            for f in request.facts:
                if response.confidences.get(f) != expected.get(f):
                    mismatches.append(
                        f"request {i}: confidence of {f} at v{version} is "
                        f"{response.confidences.get(f)}, expected {expected.get(f)}"
                    )
        else:
            kept, lost = oracle.answers(version, excluded, request.query)
            if (frozenset(response.answers) != kept
                    or frozenset(response.downgraded_answers) != lost):
                mismatches.append(f"request {i}: answers at v{version} differ "
                                  "from certain_answer_lower_bound")
    return mismatches
