#!/usr/bin/env python3
"""E19 — the cost-based adaptive optimizer vs the static join order.

Measures what :mod:`repro.plan.optimizer` buys over the purely syntactic
``order_body`` order on workloads where cardinalities, not syntax, decide
the cost:

* **skewed chain join** (the headline) — ``ans(x, z) <- Big(y, z), Mid(x, y),
  Tiny(x, w)`` over one database with ``m`` ``Big`` facts (default 20 000).
  The static order's alphabetical tie-break starts at ``Big``, and the
  ``Big ⨝ Mid`` intermediate explodes to ~20·m rows before ``Tiny`` prunes
  it; the optimizer's DP order starts at ``Tiny`` and never materializes
  more than a few thousand rows. Both plans run on the *same* executor and
  the *same* cached data source — the measured gap is purely join order.
* **adaptive re-optimization** — the same chain shape compiled against a
  *misleading* world (where ``P`` is tiny), then executed repeatedly over a
  world where ``P`` holds ``m`` facts. The first executions record the
  mis-estimate, runtime feedback marks the plan stale, and the next plan
  cache hit re-optimizes with the observed cardinalities; the bench times
  the misled plan against the re-optimized one.
* **statistics maintenance** — profiling a perturbed world from scratch vs
  incrementally from its parent's cached statistics (the
  ``IFactSet.derivation`` hint path).

Fidelity first: every arm is asserted answer-identical to the backtracking
oracle before anything is timed — the optimizer may only change *cost*.

Usage::

    PYTHONPATH=src python benchmarks/bench_e19_optimizer.py            # full
    PYTHONPATH=src python benchmarks/bench_e19_optimizer.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_e19_optimizer.py --json out.json

Writes ``benchmarks/results/e19_optimizer.txt`` and a JSON trajectory entry
(default ``BENCH_optimizer.json`` at the repo root). Exits non-zero when the
skewed-chain headline falls below the acceptance floor (2.0x full, 1.3x
quick).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for _p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from repro.confidence.engine.memo import LRUMemo
from repro.core import global_table
from repro.model import GlobalDatabase, fact
from repro.plan import (
    compile_query,
    data_source_for,
    execute_plan,
    optimizer_stats,
    plan_for,
    reset_optimizer_stats,
    statistics_for,
)
from repro.plan.statistics import TableStatistics
from repro.queries import evaluate_backtracking, parse_rule

from benchmarks.conftest import write_table

SPEEDUP_FLOOR_FULL = 2.0
SPEEDUP_FLOOR_QUICK = 1.3

CHAIN_RULE = "ans(x, z) <- Big(y, z), Mid(x, y), Tiny(x, w)"
ADAPTIVE_RULE = "ans(x, z) <- P(y, z), Q(x, y), T(x, w)"


def best_of(fn, reps: int) -> float:
    """Fastest of *reps* timed calls, in seconds (standard microbench floor)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def chain_world(m: int, big: str, mid: str, tiny: str) -> GlobalDatabase:
    """A skewed chain instance: ``big`` fans out ~m/100 rows per join key."""
    keys = max(1, m // 200)
    facts = [fact(big, f"k{i % keys}", f"z{i}") for i in range(m)]
    facts += [fact(mid, f"x{i % 1000}", f"k{i % keys}") for i in range(m // 10)]
    facts += [fact(tiny, f"x{i * 97 % 1000}", f"w{i}") for i in range(10)]
    return GlobalDatabase(facts)


# -- skewed chain join (headline) ----------------------------------------------

def run_skewed_chain(quick: bool):
    m, reps = (4000, 2) if quick else (20000, 3)
    database = chain_world(m, "Big", "Mid", "Tiny")
    core = database.core()
    query = parse_rule(CHAIN_RULE)
    table = global_table()

    static_plan = compile_query(query, table)
    optimized_plan = compile_query(query, table, stats=statistics_for(core))
    source = data_source_for(core)

    # Fidelity first: both plans and the oracle agree.
    expected = {
        tuple(c.value for c in a.args)
        for a in evaluate_backtracking(query, database)
    }
    constant_value = table.constant_value
    for plan in (static_plan, optimized_plan):
        got = {
            tuple(constant_value(c) for c in row)
            for row in execute_plan(plan, source)
        }
        if got != expected:
            raise AssertionError("E19: optimizer changed the answers")

    t_static = best_of(lambda: execute_plan(static_plan, source), reps)
    t_opt = best_of(lambda: execute_plan(optimized_plan, source), reps)
    speedup = t_static / t_opt
    rows = [
        ["skewed chain", f"m={m}, 3-way join",
         f"{t_opt * 1000:.1f} ms", f"{t_static * 1000:.1f} ms",
         f"{speedup:.2f}x"],
    ]
    record = {
        "m": m,
        "answers": len(expected),
        "optimized_ms": round(t_opt * 1000, 3),
        "static_ms": round(t_static * 1000, 3),
        "speedup": round(speedup, 2),
        "optimizer_info": optimized_plan.optimizer_info,
    }
    return rows, record


# -- adaptive re-optimization --------------------------------------------------

def run_adaptive(quick: bool):
    m, reps = (4000, 2) if quick else (20000, 3)
    # Misleading world: P is tiny, T is the big relation — the optimizer
    # correctly puts P early *for this world*.
    misleading = GlobalDatabase(
        [fact("P", f"k{i}", f"z{i}") for i in range(10)]
        + [fact("Q", f"x{i % 50}", f"k{i % 10}") for i in range(200)]
        + [fact("T", f"x{i % 1000}", f"w{i}") for i in range(m // 4)]
    )
    actual = chain_world(m, "P", "Q", "T")
    query = parse_rule(ADAPTIVE_RULE)
    table = global_table()
    cache = LRUMemo(64)

    misled = plan_for(query, cache=cache, facts=misleading.core())
    actual_core = actual.core()
    source = data_source_for(actual_core)

    expected = execute_plan(misled, source)
    before = optimizer_stats()
    # Feedback from real executions marks the plan stale...
    for _ in range(2):
        execute_plan(misled, source)
    # ...and the next cache hit re-optimizes with observed cardinalities.
    adapted = plan_for(query, cache=cache, facts=actual_core)
    after = optimizer_stats()
    if adapted is misled:
        raise AssertionError("E19: stale plan was not re-optimized")
    if execute_plan(adapted, source) != expected:
        raise AssertionError("E19: re-optimization changed the answers")

    t_misled = best_of(lambda: execute_plan(misled, source), reps)
    t_adapted = best_of(lambda: execute_plan(adapted, source), reps)
    speedup = t_misled / t_adapted
    rows = [
        ["adaptive reopt", f"m={m}, misled -> re-optimized",
         f"{t_adapted * 1000:.1f} ms", f"{t_misled * 1000:.1f} ms",
         f"{speedup:.2f}x"],
    ]
    record = {
        "m": m,
        "adapted_ms": round(t_adapted * 1000, 3),
        "misled_ms": round(t_misled * 1000, 3),
        "speedup": round(speedup, 2),
        "misestimates": (after["misestimates"] or 0)
        - (before["misestimates"] or 0),
        "reoptimizations": (after["reoptimizations"] or 0)
        - (before["reoptimizations"] or 0),
        "misled_info": misled.optimizer_info,
        "adapted_info": adapted.optimizer_info,
    }
    return rows, record


# -- statistics maintenance ----------------------------------------------------

def run_statistics(quick: bool):
    m, reps = (4000, 3) if quick else (20000, 5)
    core = chain_world(m, "Big", "Mid", "Tiny").core()
    base_stats = statistics_for(core)
    removed = tuple(core)[: m // 100]
    derived = core.without_ids(removed)

    def incremental():
        return TableStatistics.derive(
            base_stats, derived,
            derived.derivation().added, derived.derivation().removed,
        )

    def from_scratch():
        return TableStatistics.profile(derived)

    if incremental().relations.keys() != from_scratch().relations.keys():
        raise AssertionError("E19: incremental statistics diverged")
    t_incremental = best_of(incremental, reps)
    t_scratch = best_of(from_scratch, reps)
    speedup = t_scratch / t_incremental
    rows = [
        ["stats maintenance", f"m={m}, {len(removed)}-fact delta",
         f"{t_incremental * 1000:.2f} ms", f"{t_scratch * 1000:.2f} ms",
         f"{speedup:.2f}x"],
    ]
    record = {
        "m": m,
        "delta": len(removed),
        "incremental_ms": round(t_incremental * 1000, 3),
        "profile_ms": round(t_scratch * 1000, 3),
        "speedup": round(speedup, 2),
    }
    return rows, record


# -- driver --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller relations and fewer reps (CI smoke mode)",
    )
    parser.add_argument(
        "--json", type=Path, default=REPO_ROOT / "BENCH_optimizer.json",
        help="where to write the JSON trajectory entry",
    )
    args = parser.parse_args(argv)
    floor = SPEEDUP_FLOOR_QUICK if args.quick else SPEEDUP_FLOOR_FULL
    mode = "quick" if args.quick else "full"

    reset_optimizer_stats()

    chain_rows, chain_record = run_skewed_chain(args.quick)
    adaptive_rows, adaptive_record = run_adaptive(args.quick)
    stats_rows, stats_record = run_statistics(args.quick)
    counters = optimizer_stats()

    headline = chain_record["speedup"]
    passed = headline >= floor
    notes = [
        f"mode={mode}; acceptance floor {floor:.1f}x on the skewed-chain row",
        f"headline: skewed chain {headline:.2f}x -> "
        f"{'PASS' if passed else 'FAIL'}",
        "both arms share one executor and one cached data source; the gap "
        "is join order (static = syntactic order_body, optimized = "
        "statistics-driven DP)",
        f"optimizer counters: optimized={counters['plans_optimized']} "
        f"dp={counters['dp_orders']} "
        f"misestimates={counters['misestimates']} "
        f"reoptimizations={counters['reoptimizations']}",
    ]
    table = write_table(
        "e19_optimizer",
        "E19: cost-based adaptive optimizer vs static join order",
        ["workload", "case", "optimized", "static/misled", "speedup"],
        chain_rows + adaptive_rows + stats_rows,
        notes=notes,
    )
    print(table)

    payload = {
        "bench": "e19_optimizer",
        "date": datetime.date.today().isoformat(),
        "mode": mode,
        "workloads": {
            "skewed_chain": chain_record,
            "adaptive_reopt": adaptive_record,
            "statistics_maintenance": stats_record,
        },
        "optimizer": counters,
        "acceptance": {
            "floor": floor,
            "skewed_chain_speedup": headline,
            "passed": passed,
        },
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    if not passed:
        print(
            f"FAIL: skewed-chain speedup below the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
