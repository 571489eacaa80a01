"""Command-line interface: ``python -m repro <command>``.

Commands operate on source-collection files in the :mod:`repro.io` format:

* ``check FILE [--workers N]`` — decide CONSISTENCY; print the verdict and
  a witness. ``--workers`` checks independent source groups in parallel.
* ``confidence FILE --domain a,b,c [--cache N] [--stats]`` —
  exact base-fact confidences (identity-view collections), ranked, computed
  by the memoized engine.
* ``worlds FILE --domain a,b,c [--limit N]`` — enumerate possible worlds.
* ``audit FILE --world WORLDFILE`` — measured vs declared quality against a
  reference database.
* ``answer FILE --query 'ans(x) <- R(x)' --domain a,b,c [--explain]`` —
  certain and possible answers with per-tuple confidence; ``--explain``
  prints the compiled physical plan (``repro.plan``) first. ``--shards N``
  routes every world through scatter-gather execution (``repro.shard``)
  and adds the shard plan to ``--explain``. ``--cache-budget-mb MB`` caps
  the unified cache runtime's accounted bytes; ``--stats`` prints its
  per-cache tree.
* ``serve FILE --domain a,b,c [--requests N]`` — run the mediator *service*
  (``repro.service``) against an open-loop burst of confidence requests and
  report the observability snapshot; ``--json`` emits it machine-readable;
  ``--shards N`` answers query requests over a sharded certain database.
  Every batch first probes each source through the per-source
  availability layer (``repro.resilience``): circuit breakers, per-source
  timeouts, retried and hedged probes, and semantically degraded answers.
  ``--fault-*`` injects faults on every source, ``--source-fault`` on one,
  and ``--chaos`` scripts deterministic per-source outages over the burst.

Exit status: 0 on success (and a consistent collection for ``check``),
1 for an inconsistent collection, 2 for usage/input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro.io.serialization import load_collection, load_database
from repro.queries.parser import parse_rule
from repro.confidence.answers import answer_query
from repro.confidence.engine import ConfidenceEngine
from repro.confidence.worlds import possible_worlds
from repro.consistency.checker import check_consistency
from repro.consistency.parallel import check_consistency_parallel


def _domain(value: str) -> List[str]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise argparse.ArgumentTypeError("domain must be a comma-separated list")
    return items


def _add_engine_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="SIZE",
        help="memo capacity for block-counting results "
        "(default: shared process-wide cache; 0 disables caching)",
    )
    subparser.add_argument(
        "--stats",
        action="store_true",
        help="print engine instrumentation (stage times, cache hit rates), "
        "followed by the same data as one machine-readable JSON line",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query partially sound and complete data sources "
        "(Mendelzon & Mihaila, PODS 2001).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="decide CONSISTENCY")
    check.add_argument("file", help="source-collection file")
    check.add_argument(
        "--workers",
        type=int,
        default=0,
        help="check independent source groups in parallel (0/1 = serial)",
    )

    confidence = commands.add_parser(
        "confidence", help="exact base-fact confidences (identity views)"
    )
    confidence.add_argument("file")
    confidence.add_argument("--domain", type=_domain, required=True)
    _add_engine_flags(confidence)

    worlds = commands.add_parser("worlds", help="enumerate possible worlds")
    worlds.add_argument("file")
    worlds.add_argument("--domain", type=_domain, required=True)
    worlds.add_argument("--limit", type=int, default=20)

    audit = commands.add_parser(
        "audit", help="measured vs declared quality against a reference world"
    )
    audit.add_argument("file")
    audit.add_argument("--world", required=True, help="database file")

    answer = commands.add_parser(
        "answer", help="certain/possible answers with confidences"
    )
    answer.add_argument("file")
    answer.add_argument("--query", required=True, help="e.g. 'ans(x) <- R(x)'")
    answer.add_argument("--domain", type=_domain, required=True)
    answer.add_argument(
        "--explain", action="store_true",
        help="print the compiled physical plan before the answers",
    )
    answer.add_argument(
        "--explain-analyze", action="store_true",
        help="run the query measured over the possible worlds and print the "
        "annotated plan (cardinality estimates vs actuals) before the answers",
    )
    answer.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="hash-partition each world into N shards and answer via "
        "scatter-gather execution (repro.shard); with --explain the shard "
        "plan (strategy, pruned-shard count) is printed too (default 1)",
    )
    answer.add_argument(
        "--cache-budget-mb", type=float, default=None, metavar="MB",
        help="global byte budget shared by the confidence memo and the "
        "plan cache; least-recently-used entries across both are evicted "
        "past it (default: unbounded)",
    )
    answer.add_argument(
        "--stats", action="store_true",
        help="print the unified cache-runtime stats tree (per-cache and "
        "global hits/misses/evictions/bytes) as one JSON line after the "
        "answers",
    )
    answer.add_argument(
        "--exclude-source", action="append", default=[], metavar="NAME",
        help="demote NAME's annotation to <c=0, s=0> before answering (the "
        "offline mirror of runtime degradation, repro.resilience.degrade); "
        "repeatable; answers certain only via the excluded source are "
        "reported as downgraded to possible",
    )

    consensus = commands.add_parser(
        "consensus", help="conflict analysis: trust, blame, repairs, relaxation"
    )
    consensus.add_argument("file")

    rewrite = commands.add_parser(
        "rewrite", help="answer a global-schema query using the views"
    )
    rewrite.add_argument("file")
    rewrite.add_argument("--query", required=True, help="e.g. 'ans(x) <- R(x, y)'")
    rewrite.add_argument(
        "--plans-only", action="store_true", help="print plans, skip execution"
    )
    rewrite.add_argument(
        "--explain", action="store_true",
        help="print each rewriting's compiled physical plan",
    )
    rewrite.add_argument(
        "--explain-analyze", action="store_true",
        help="execute each rewriting measured over the source extensions and "
        "print its annotated plan (cardinality estimates vs actuals)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the mediator service against an open-loop request burst",
    )
    serve.add_argument("file", help="source-collection file (identity views)")
    serve.add_argument("--domain", type=_domain, required=True)
    serve.add_argument(
        "--requests", type=int, default=100,
        help="number of confidence requests in the burst (default 100)",
    )
    serve.add_argument(
        "--batch", type=int, default=16,
        help="micro-batch size; 1 = per-request dispatch (default 16)",
    )
    serve.add_argument(
        "--queue", type=int, default=256,
        help="admission queue bound; overflow is rejected (default 256)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline in milliseconds (default: none)",
    )
    serve.add_argument(
        "--arrival-ms", type=float, default=0.0,
        help="open-loop inter-arrival gap in milliseconds (default 0)",
    )
    serve.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="update a source every N requests (exercises versioned "
        "snapshots and memo invalidation; default 0 = no churn)",
    )
    serve.add_argument(
        "--fault-latency-ms", type=float, default=0.0,
        help="injected read latency in milliseconds on every source "
        "(the gateway's default lane policy)",
    )
    serve.add_argument(
        "--fault-error-rate", type=float, default=0.0,
        help="injected transient read-failure probability on every source "
        "(the gateway's default lane policy)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="answer query requests over an N-shard partition of each "
        "snapshot's certain database (default 1 = single store)",
    )
    serve.add_argument("--seed", type=int, default=0, help="fault RNG seed")
    serve.add_argument(
        "--source-fault", action="append", default=[], metavar="NAME:MODE",
        help="per-source fault active from the start, e.g. S1:crash, "
        "S2:error:0.8, S1:slow:20, S2:partition; repeatable",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic outage schedule over the burst, e.g. "
        "'0:S1:crash, 400:S1:ok' (AT_MS:SOURCE:MODE[:ARG], comma-"
        "separated)",
    )
    serve.add_argument(
        "--source-timeout-ms", type=float, default=50.0,
        help="per-source probe timeout in milliseconds (default 50)",
    )
    serve.add_argument(
        "--hedge-ms", type=float, default=0.0,
        help="launch a hedged duplicate probe after this many milliseconds "
        "without an answer (0 disables hedging; default 0)",
    )
    serve.add_argument(
        "--breaker-threshold", type=float, default=0.5,
        help="EWMA error-rate at which a source's breaker opens (default 0.5)",
    )
    serve.add_argument(
        "--breaker-cooldown-ms", type=float, default=250.0,
        help="milliseconds an open breaker waits before half-opening "
        "(default 250)",
    )
    serve.add_argument(
        "--cache-budget-mb", type=float, default=None, metavar="MB",
        help="global byte budget shared by every cache the service uses; "
        "the stats snapshot's cache section reports accounted bytes "
        "against it (default: unbounded)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print only the JSON observability snapshot (for scrapers/CI)",
    )

    return parser


def cmd_check(args) -> int:
    collection = load_collection(args.file)
    if args.workers and args.workers > 1:
        result = check_consistency_parallel(collection, workers=args.workers)
    else:
        result = check_consistency(collection)
    status = "CONSISTENT" if result.consistent else (
        "INCONSISTENT" if result.decisive else "UNDECIDED (search truncated)"
    )
    print(f"{status}  (method: {result.method}, "
          f"combinations tried: {result.combinations_tried})")
    if result.witness is not None:
        print("witness possible world:")
        for f in sorted(result.witness):
            print(f"  {f}")
    return 0 if result.consistent else 1


def cmd_confidence(args) -> int:
    collection = load_collection(args.file)
    with ConfidenceEngine(
        collection, args.domain, cache_size=args.cache
    ) as engine:
        confidences = engine.confidences()
        for f, conf in sorted(
            confidences.items(), key=lambda kv: (-kv[1], str(kv[0]))
        ):
            print(f"{float(conf):8.4f}  {conf!s:>10}  {f}")
        if args.stats:
            from repro.cache import cache_registry

            print()
            print(engine.stats.render())
            payload = engine.stats.to_dict()
            payload["cache_runtime"] = cache_registry().stats()
            print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_worlds(args) -> int:
    collection = load_collection(args.file)
    count = 0
    for world in possible_worlds(collection, args.domain):
        count += 1
        if count <= args.limit:
            shown = ", ".join(str(f) for f in sorted(world))
            print(f"world {count}: {{{shown}}}")
    if count > args.limit:
        print(f"... and {count - args.limit} more")
    print(f"total possible worlds: {count}")
    return 0 if count else 1


def cmd_audit(args) -> int:
    collection = load_collection(args.file)
    world = load_database(args.world)
    ok = True
    for source in collection:
        measured_c = source.completeness(world)
        measured_s = source.soundness(world)
        c_ok = measured_c >= source.completeness_bound
        s_ok = measured_s >= source.soundness_bound
        ok = ok and c_ok and s_ok
        print(
            f"{source.name}: completeness {measured_c} "
            f"(declared >= {source.completeness_bound}) "
            f"[{'ok' if c_ok else 'VIOLATED'}], "
            f"soundness {measured_s} "
            f"(declared >= {source.soundness_bound}) "
            f"[{'ok' if s_ok else 'VIOLATED'}]"
        )
    print("world admitted" if ok else "world NOT admitted")
    return 0 if ok else 1


def cmd_answer(args) -> int:
    from repro.exceptions import SourceError

    collection = load_collection(args.file)
    query = parse_rule(args.query)
    if args.shards < 1:
        raise SourceError("--shards must be >= 1")
    excluded = tuple(sorted(set(args.exclude_source)))
    full_collection = collection
    if excluded:
        from repro.resilience import demote

        names = {source.name for source in collection}
        unknown = [name for name in excluded if name not in names]
        if unknown:
            raise SourceError(
                f"--exclude-source: unknown source(s) {', '.join(unknown)}"
            )
        collection = demote(collection, excluded)
    if args.cache_budget_mb is not None:
        from repro.cache import set_cache_budget_mb

        if args.cache_budget_mb < 0:
            raise SourceError("--cache-budget-mb must be >= 0")
        set_cache_budget_mb(args.cache_budget_mb)
    spec = None
    if args.shards > 1:
        from repro.shard import PartitionSpec

        spec = PartitionSpec(args.shards)
    if args.explain:
        from repro.plan import explain

        print(explain(query))
        if spec is not None:
            from repro.model.database import GlobalDatabase
            from repro.shard import ShardedDatabase, explain_shards

            sample = next(
                iter(possible_worlds(collection, args.domain)),
                GlobalDatabase(()),
            )
            print()
            print(explain_shards(query, ShardedDatabase(sample, spec)))
        print()
    if args.explain_analyze:
        from repro.plan import explain_analyze_worlds

        print(
            explain_analyze_worlds(
                query, possible_worlds(collection, args.domain)
            )
        )
        print()
    apply = None
    if spec is not None:
        from repro.shard import evaluate_sharded

        def apply(q, world):
            return evaluate_sharded(q, world, spec)

    result = answer_query(query, collection, args.domain, apply=apply)
    full_certain = (
        answer_query(query, full_collection, args.domain, apply=apply).certain
        if excluded else None
    )
    if excluded:
        print(f"excluded sources (annotations demoted): {', '.join(excluded)}")
    print(f"possible worlds: {result.world_count}")
    print("certain answer:")
    for f in sorted(result.certain):
        print(f"  {f}")
    if full_certain is not None:
        from repro.resilience import downgraded

        print("downgraded to possible (certain only with excluded sources):")
        for f in downgraded(full_certain, result.certain):
            print(f"  {f}")
    print("possible answer (ranked by confidence):")
    for f, conf in result.ranked():
        print(f"  {float(conf):8.4f}  {f}")
    if args.stats:
        from repro.cache import cache_registry

        print(json.dumps({"cache": cache_registry().stats()}, sort_keys=True))
    return 0


def cmd_consensus(args) -> int:
    from repro.consensus import (
        blame_scores,
        consensus_trust_scores,
        minimal_inconsistent_subcollections,
        repair_via_hitting_set,
        trust_scores,
        uniform_relaxation,
    )

    collection = load_collection(args.file)
    conflicts = minimal_inconsistent_subcollections(collection)
    if not conflicts:
        print("collection is consistent: every source fully trusted")
        return 0
    print(f"minimal conflicts ({len(conflicts)}):")
    for conflict in conflicts:
        print(f"  {{{', '.join(sorted(conflict))}}}")
    trust = trust_scores(collection)
    consensus = consensus_trust_scores(collection)
    blame = blame_scores(collection)
    print("\nper-source scores (consensus trust / unweighted trust / blame):")
    for source in collection:
        name = source.name
        print(
            f"  {name}: {float(consensus[name]):.3f} / "
            f"{float(trust[name]):.3f} / {float(blame[name]):.3f}"
        )
    repair, _ = repair_via_hitting_set(collection)
    print(f"\nminimum repair (drop): {{{', '.join(sorted(repair))}}}")
    discount, _ = uniform_relaxation(collection)
    print(f"uniform bound discount restoring consistency: ~{float(discount):.3f}")
    return 1


def cmd_rewrite(args) -> int:
    from repro.rewriting import execute_all, find_rewritings

    collection = load_collection(args.file)
    query = parse_rule(args.query)
    views = [source.view for source in collection]
    plans = find_rewritings(query, views)
    if not plans:
        print("no sound rewriting exists over these views")
        return 1
    print(f"{len(plans)} verified sound plan(s):")
    for plan in plans:
        tag = "EQUIVALENT" if plan.equivalent else "sound"
        print(f"  [{tag}] {plan.plan}")
    if args.explain:
        from repro.plan import explain

        for plan in plans:
            print()
            print(explain(plan.plan))
    if args.explain_analyze:
        from repro.plan import explain_analyze
        from repro.rewriting.executor import source_database

        database = source_database(collection)
        for plan in plans:
            print()
            print(explain_analyze(plan.plan, database))
    if args.plans_only:
        return 0
    print("\nanswers from the sources (ranked by support):")
    for answer in execute_all(plans, collection):
        print(
            f"  {float(answer.support):6.3f}  {answer.fact}  "
            f"via {', '.join(sorted(answer.sources))}"
        )
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.exceptions import SourceError
    from repro.resilience import ChaosRunner, ChaosSchedule, ResilienceConfig
    from repro.service import (
        FaultPolicy,
        MediatorService,
        PerSourceGateway,
        RequestStatus,
        SchedulerConfig,
    )

    collection = load_collection(args.file)
    if collection.identity_relation() is None:
        raise SourceError(
            "serve requires an identity-view collection over one relation "
            "(the confidence engine's setting)"
        )
    if args.requests < 1:
        raise SourceError("--requests must be >= 1")
    if args.shards < 1:
        raise SourceError("--shards must be >= 1")
    if args.cache_budget_mb is not None:
        from repro.cache import set_cache_budget_mb

        if args.cache_budget_mb < 0:
            raise SourceError("--cache-budget-mb must be >= 0")
        set_cache_budget_mb(args.cache_budget_mb)
    # --fault-* set every lane's default policy; --source-fault entries are
    # chaos events at t=0, so one schedule (and one deterministic runner)
    # drives both per-source flags.
    gateway = PerSourceGateway(
        default=FaultPolicy(
            latency=args.fault_latency_ms / 1000.0,
            error_rate=args.fault_error_rate,
        ),
        seed=args.seed,
    )
    spec_parts = [f"0:{entry}" for entry in args.source_fault]
    if args.chaos:
        spec_parts.append(args.chaos)
    chaos_runner = ChaosRunner(
        gateway, ChaosSchedule.parse(",".join(spec_parts))
    )
    chaos_runner.advance(0.0)
    config = SchedulerConfig(
        max_queue=args.queue,
        max_batch=args.batch,
        shards=args.shards,
        resilience=ResilienceConfig(
            source_timeout=args.source_timeout_ms / 1000.0,
            hedge_delay=args.hedge_ms / 1000.0,
            error_threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown_ms / 1000.0,
        ),
    )
    service = MediatorService(
        collection, args.domain, config=config, gateway=gateway
    )
    timeout = None if args.deadline_ms is None else args.deadline_ms / 1000.0
    gap = args.arrival_ms / 1000.0
    # With sharding on, every fifth request also carries the identity query,
    # so the burst exercises the scatter-gather query path end to end.
    shard_query = None
    if args.shards > 1:
        relation = collection.identity_relation()
        arity = len(next(iter(collection)).view.body[0].args)
        variables = ", ".join(f"x{i}" for i in range(arity))
        shard_query = parse_rule(f"ans({variables}) <- {relation}({variables})")

    async def burst():
        facts = service.registry.snapshot().covered_facts()
        loop = asyncio.get_running_loop()
        start = loop.time()
        async with service:
            futures = []
            for i in range(args.requests):
                chaos_runner.advance(loop.time() - start)
                if args.churn and i and i % args.churn == 0:
                    source = service.registry.snapshot().collection[0]
                    service.update_source(source.with_bounds(
                        soundness_bound=source.soundness_bound
                    ))
                wanted = [facts[i % len(facts)], facts[(i + 1) % len(facts)]]
                query = shard_query if shard_query and i % 5 == 0 else None
                futures.append(
                    await service.submit(wanted, timeout=timeout, query=query)
                )
                if gap > 0:
                    await asyncio.sleep(gap)
            responses = [await f for f in futures]
        return responses

    responses = asyncio.run(burst())
    snapshot = service.stats()
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
        return 0
    by_status = {status: 0 for status in RequestStatus}
    for response in responses:
        by_status[response.status] += 1
    print(
        f"served {len(responses)} requests against "
        f"{len(collection)} sources (registry v"
        f"{snapshot['registry']['version']})"
    )
    for status, count in by_status.items():
        if count:
            print(f"  {status.value:>8}: {count}")
    degraded = sum(1 for response in responses if response.degraded)
    if degraded:
        excluded = sorted(
            {name for r in responses for name in r.excluded_sources}
        )
        print(f"  degraded: {degraded} (sources excluded: "
              f"{', '.join(excluded)})")
    histograms = snapshot["metrics"]["histograms"]
    latency = histograms.get("latency", {})
    if latency.get("count"):
        print(
            "latency ms: "
            f"p50 {1000 * (latency['p50'] or 0):.2f}  "
            f"p95 {1000 * (latency['p95'] or 0):.2f}  "
            f"p99 {1000 * (latency['p99'] or 0):.2f}"
        )
    batch = histograms.get("batch_size", {})
    if batch.get("count"):
        print(
            f"engine calls: {snapshot['metrics']['counters']['engine_calls']}"
            f"  mean batch {batch['mean']:.2f}  max batch {batch['max']:.0f}"
        )
    print(f"source reads: {snapshot['gateway']['reads']}")
    print(json.dumps(snapshot, sort_keys=True))
    return 0


_COMMANDS = {  # adhoc-cache-ok: static command dispatch table, not a cache
    "check": cmd_check,
    "confidence": cmd_confidence,
    "worlds": cmd_worlds,
    "audit": cmd_audit,
    "answer": cmd_answer,
    "consensus": cmd_consensus,
    "rewrite": cmd_rewrite,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
