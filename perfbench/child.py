"""One workload run in a fresh interpreter; ``perfbench/run.py`` spawns it.

    python3 -m perfbench.child --workload NAME --seed N --seconds S \\
        --mode measure|setup|trace [--scale full|tiny] [--spans PATH]

``setup`` stops where the first timed op would start; ``measure`` runs the
timed loop and checks every output against the workload's oracle;
``trace`` does the same with spans installed and adds the per-layer
numbers. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import sys
import time
from typing import Dict, List

from perfbench.common import (
    OpLog,
    class_of_rank,
    failures,
    peak_rss_mb,
    summarize,
)

#: Per-layer metrics of a traced run: name -> (unit, better). Self times
#: are shares of the timed wall time, so an idle layer reads 0%.
PER_LAYER = {
    "service.wait_pct": ("%", "lower"),
    "service.batch_mean": ("count", "higher"),
    "service.batches": ("count", "lower"),
    "registry.self_pct": ("%", "lower"),
    "registry.mutations": ("count", "lower"),
    "registry.touched_blocks_mean": ("count", "lower"),
    "resilience.self_pct": ("%", "lower"),
    "resilience.degraded_share": ("%", "lower"),
    "resilience.short_circuit_ratio": ("%", "higher"),
    "cache.invalidate_pct": ("%", "lower"),
    "cache.invalidated": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.bytes_peak": ("bytes", "lower"),
    "cache.hit_ratio.engine.memo": ("%", "higher"),
    "cache.hit_ratio.plan.plans": ("%", "higher"),
    "cache.hit_ratio.plan.data_sources": ("%", "higher"),
    "cache.hit_ratio.plan.statistics": ("%", "higher"),
    "engine.self_pct": ("%", "lower"),
    "engine.count_pct": ("%", "lower"),
    "engine.key_pct": ("%", "lower"),
    "engine.memo_hit_ratio": ("%", "higher"),
    "engine.dp_states": ("count", "lower"),
    "blocks.self_pct": ("%", "lower"),
    "blocks.calls": ("count", "lower"),
    "worlds.self_pct": ("%", "lower"),
    "sources.admits_pct": ("%", "lower"),
    "worlds.examined": ("count", "lower"),
    "worlds.admit_ratio": ("%", "higher"),
    "plan.self_pct": ("%", "lower"),
    "plan.calls": ("count", "lower"),
    "plan.compile_pct": ("%", "lower"),
    "plan.stats_pct": ("%", "lower"),
    "plan.reoptimizations": ("count", "lower"),
    "shard.self_pct": ("%", "lower"),
    "shard.prune_ratio": ("%", "higher"),
    "shard.fragments": ("count", "lower"),
    "core.symbols": ("count", "lower"),
    "loadgen.lag_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Caches whose hit ratio is reported.
HIT_RATIO_CACHES = ("engine.memo", "plan.plans", "plan.data_sources",
                    "plan.statistics")


def stats_snapshot() -> Dict[str, object]:
    """The public stats surfaces the per-layer counts are read from."""
    from repro.cache import cache_registry
    from repro.plan import optimizer_stats
    from repro.shard import shard_stats

    return {"cache": cache_registry().stats(), "optimizer": optimizer_stats(),
            "shard": shard_stats()}


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def layer_metrics(spans, first: int, engine, before, after, log: OpLog,
                  wall: float, inputs, bytes_peak: int) -> Dict[str, float]:
    """Per-layer numbers of a traced run (``trace.overhead_pct`` is added
    by the parent, which also ran the untraced twin)."""
    from repro.core.symbols import global_table

    self_s = {name: 0.0 for name in spans.names}
    count = {name: 0 for name in spans.names}
    all_self = spans.self_times()
    admits_examined = 0
    admits_nid = spans.name_ids.get("sources.admits")
    worlds_nid = spans.name_ids.get("worlds.next")
    for i in range(first, len(spans)):
        name = spans.names[spans.name[i]]
        self_s[name] += all_self[i]
        count[name] += 1
        if (spans.name[i] == admits_nid and spans.parent[i] >= 0
                and spans.name[spans.parent[i]] == worlds_nid):
            admits_examined += 1

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    m: Dict[str, float] = {key: 0.0 for key in PER_LAYER}
    for name in ("registry", "resilience", "engine", "blocks", "plan", "shard"):
        m[f"{name}.self_pct"] = _pct(layer(name), wall)
    m["cache.invalidate_pct"] = _pct(layer("cache"), wall)
    m["engine.count_pct"] = _pct(self_s.get("engine.solve_wire", 0.0), wall)
    m["engine.key_pct"] = _pct(self_s.get("engine.canonical_key", 0.0), wall)
    m["worlds.self_pct"] = _pct(layer("worlds"), wall)
    m["sources.admits_pct"] = _pct(layer("sources"), wall)
    m["plan.compile_pct"] = _pct(self_s.get("plan.plan_for", 0.0), wall)
    m["plan.stats_pct"] = _pct(self_s.get("plan.statistics_for", 0.0), wall)
    m["plan.calls"] = count.get("plan.evaluate", 0)
    m["blocks.calls"] = count.get("blocks.instance", 0)
    m["worlds.examined"] = admits_examined
    admitted = getattr(inputs, "admitted_worlds", None)
    if admitted is not None:
        m["worlds.admit_ratio"] = _pct(admitted(log), admits_examined)
    m["engine.dp_states"] = engine.totals["dp_states"]
    m["engine.memo_hit_ratio"] = _pct(engine.totals["tasks_memoized"],
                                      engine.totals["tasks_submitted"])

    cache_b, cache_a = before["cache"], after["cache"]
    m["cache.invalidated"] = cache_a["invalidations"] - cache_b["invalidations"]
    m["cache.evictions"] = cache_a["evictions"] - cache_b["evictions"]
    m["cache.bytes_peak"] = bytes_peak
    for name in HIT_RATIO_CACHES:
        a = cache_a["caches"].get(name, {})
        b = cache_b["caches"].get(name, {})
        hits = a.get("hits", 0) - b.get("hits", 0)
        misses = a.get("misses", 0) - b.get("misses", 0)
        m[f"cache.hit_ratio.{name}"] = _pct(hits, hits + misses)
    m["plan.reoptimizations"] = (after["optimizer"]["reoptimizations"]
                                 - before["optimizer"]["reoptimizations"])
    shard_b, shard_a = before["shard"], after["shard"]
    executed = (shard_a.get("fragments_executed", 0)
                - shard_b.get("fragments_executed", 0))
    pruned = shard_a.get("shards_pruned", 0) - shard_b.get("shards_pruned", 0)
    m["shard.fragments"] = executed
    m["shard.prune_ratio"] = _pct(pruned, pruned + executed)
    symbols = global_table().counts()
    m["core.symbols"] = sum(symbols)
    m["trace.coverage_pct"] = _pct(spans.coverage(log.windows), wall)
    service = getattr(inputs, "service_metrics", None)
    if service is not None:
        m.update(service(spans, log))
    if set(m) != set(PER_LAYER):
        raise KeyError(f"per-layer metrics out of sync: {sorted(set(m) ^ set(PER_LAYER))}")
    return {key: float(value) for key, value in m.items()}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"),
                        required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    spans = engine = None
    if args.mode == "trace":
        from perfbench import trace

        spans, engine = trace.SpanLog(), trace.EngineCounters()
        trace.install(spans, engine)
    module = importlib.import_module(f"perfbench.workloads.{args.workload}")
    inputs = module.build(args.seed, args.scale)
    input_digest = module.digest(inputs)
    module.warm(inputs)
    # Start the timed region from a collected heap, with everything set-up
    # left alive frozen out of the collector: a full collection then scans
    # only what the run allocates, not the interpreter's import-time
    # objects, whose count would otherwise put GC pauses of varying length
    # into the latencies.
    gc.collect()
    gc.freeze()
    log = OpLog()
    base = {
        "input_digest": input_digest,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.mode == "setup":
        module.run(inputs, 0, log)
        print(json.dumps({**base, "t_first": log.t_first}))
        return 0

    before = first = None
    bytes_peak = [0]
    if spans is not None:
        from repro.cache import cache_registry

        registry = cache_registry()

        def sample() -> None:
            bytes_peak[0] = max(bytes_peak[0], registry.total_bytes())

        log.sampler = sample
        before = stats_snapshot()
        first = len(spans)
    wall = module.run(inputs, args.seconds, log)
    rss = peak_rss_mb()
    per_layer = None
    if spans is not None:
        after = stats_snapshot()
        per_layer = layer_metrics(spans, first, engine, before, after, log,
                                  wall, inputs, bytes_peak[0])
        if args.spans:
            spans.write(args.spans)

    check_start = time.perf_counter()
    mismatches = module.check(inputs, log) if len(log) else []
    check_s = time.perf_counter() - check_start
    not_ok = sum(1 for ok in log.ok if not ok)
    summary = summarize(log, wall, module.tail(inputs, log)) if len(log) else {}
    record = {
        **base,
        "t_first": log.t_first,
        "attempted": len(log),
        "not_ok": not_ok,
        "mismatches": len(mismatches),
        "mismatch_examples": mismatches[:5],
        "error_examples": log.errors[:5],
        "failed": failures(log, mismatches),
        "correct": not mismatches,
        "summary": summary,
        "peak_rss_mb": rss,
        "op_classes": log.class_counts(),
        "classes_at_p50": class_of_rank(log, 0.5),
        "latencies": log.latencies,
        "check_s": check_s,
        "per_layer": per_layer,
        "workload": getattr(inputs, "record", lambda: {})(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
