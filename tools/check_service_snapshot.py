#!/usr/bin/env python3
"""Validate a ``python -m repro serve --json`` observability snapshot.

Reads one JSON document from stdin (or a file given as argv[1]) and checks
the scrape contract that CI's service smoke step relies on: the four
top-level sections exist, the registry block is sane, request counters
balance (every submitted request reached exactly one terminal status),
every histogram carries the percentile fields, and the resilience section
(per-source breakers, present on every snapshot) is well-formed. Exit 0
when well-formed, 1 with a report of every violation otherwise.

Usage: python -m repro serve FILE --domain a,b --json | python tools/check_service_snapshot.py
"""

from __future__ import annotations

import json
import sys
from typing import List

TOP_LEVEL = {"registry", "metrics", "gateway", "tracing"}
METRIC_KINDS = {"counters", "gauges", "histograms"}
HISTOGRAM_FIELDS = {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}
TERMINAL = ("ok", "timeout", "rejected", "error")


def validate(snapshot: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is {type(snapshot).__name__}, expected object"]
    missing = TOP_LEVEL - set(snapshot)
    if missing:
        problems.append(f"missing top-level sections: {sorted(missing)}")
        return problems

    registry = snapshot["registry"]
    for key in ("version", "sources", "domain_size"):
        if key not in registry:
            problems.append(f"registry lacks {key!r}")
    if isinstance(registry.get("version"), int) and registry["version"] < 0:
        problems.append(f"registry version {registry['version']} is negative")

    metrics = snapshot["metrics"]
    missing_kinds = METRIC_KINDS - set(metrics)
    if missing_kinds:
        problems.append(f"metrics lacks {sorted(missing_kinds)}")
        return problems

    counters = metrics["counters"]
    submitted = counters.get("requests_submitted", 0)
    resolved = sum(counters.get(f"responses_{s}", 0) for s in TERMINAL)
    if submitted != resolved:
        problems.append(
            f"{submitted} requests submitted but {resolved} resolved: "
            "a request vanished without a terminal status"
        )
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"counter {name!r} is {value!r}, expected int >= 0")

    for name, histogram in metrics["histograms"].items():
        missing_fields = HISTOGRAM_FIELDS - set(histogram)
        if missing_fields:
            problems.append(
                f"histogram {name!r} lacks {sorted(missing_fields)}"
            )

    tracing = snapshot["tracing"]
    for key in ("spans_started", "spans_dropped", "recent_spans"):
        if not isinstance(tracing.get(key), int):
            problems.append(f"tracing.{key} is {tracing.get(key)!r}")

    if "reads" not in snapshot["gateway"]:
        problems.append("gateway lacks 'reads'")

    shard = snapshot.get("shard")
    if isinstance(shard, dict):
        shards = shard.get("shards")
        if not isinstance(shards, int) or shards < 1:
            problems.append(f"shard.shards is {shards!r}, expected int >= 1")
        for name, value in (shard.get("counters") or {}).items():
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"shard counter {name!r} is {value!r}, expected int >= 0"
                )
    elif shard is not None:
        problems.append(f"shard section is {type(shard).__name__}, expected object")

    cache = snapshot.get("cache")
    if isinstance(cache, dict):
        if not isinstance(cache.get("caches"), dict):
            problems.append("cache section lacks a 'caches' object")
        for counter in ("hits", "misses", "evictions", "invalidations", "bytes"):
            value = cache.get(counter)
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"cache.{counter} is {value!r}, expected int >= 0"
                )
        for name, leaf in (cache.get("caches") or {}).items():
            if not isinstance(leaf, dict) or "hits" not in leaf:
                problems.append(f"cache leaf {name!r} lacks 'hits'")
    elif cache is not None:
        problems.append(f"cache section is {type(cache).__name__}, expected object")

    resilience = snapshot.get("resilience")
    if isinstance(resilience, dict):
        sources = resilience.get("sources")
        if not isinstance(sources, dict):
            problems.append("resilience section lacks a 'sources' object")
        for name, breaker in (sources or {}).items():
            if breaker.get("state") not in ("closed", "open", "half_open"):
                problems.append(
                    f"breaker {name!r} state is {breaker.get('state')!r}"
                )
            for field in ("samples", "failures", "successes", "opens"):
                value = breaker.get(field)
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        f"breaker {name!r}.{field} is {value!r}, "
                        "expected int >= 0"
                    )
        for transition in resilience.get("transitions", ()):
            if not {"source", "from", "to", "at"} <= set(transition):
                problems.append(f"malformed breaker transition {transition!r}")
    elif resilience is None:
        problems.append("missing top-level section 'resilience'")
    else:
        problems.append(
            f"resilience section is {type(resilience).__name__}, "
            "expected object"
        )
    return problems


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        with open(argv[1], "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"snapshot is not valid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate(snapshot)
    if problems:
        for problem in problems:
            print(f"malformed snapshot: {problem}", file=sys.stderr)
        return 1
    counters = snapshot["metrics"]["counters"]
    print(
        "snapshot well-formed: "
        f"v{snapshot['registry']['version']}, "
        f"{counters.get('requests_submitted', 0)} requests, "
        f"{counters.get('engine_calls', 0)} engine calls"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
