#!/usr/bin/env python3
"""E18 — the compiled plan pipeline vs the backtracking evaluator (repro.plan).

Measures the unified query-plan IR on the workload every possible-worlds
algorithm in this repo spends its time in: the *same* query evaluated over
*many* databases, most of them seen before.

* **per-world evaluation** — the join ``ans(x, z) <- E(x, y), F(y, z)``
  over a cycled pool of perturbed worlds (~60 binary facts each). The plan
  arm compiles once per alpha-equivalence class and reuses each world's
  scan rows and column indexes, which live on the world's fact set; the
  backtracking arm re-scans ``F``'s whole extension for every ``E`` fact,
  every world, every pass. Cold pass (first sight of each world: fresh
  fact-set objects over the same interned IDs, so nothing is built yet) and
  warm pass (the repeated-evaluation steady state — the headline) are
  reported separately.
* **alpha-renamed query batch** — many syntactic variants of a few query
  shapes over one world: every rename after the first is a plan-cache hit,
  and the hit rate lands in the JSON payload (the observability contract
  of ``repro.plan.plan_stats()``).

Both arms are asserted answer-identical on every world before anything is
timed — the refactor's fidelity contract, enforced again on the benchmark
workload itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_e18_plan.py            # full
    PYTHONPATH=src python benchmarks/bench_e18_plan.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_e18_plan.py --json out.json

Writes ``benchmarks/results/e18_plan.txt`` and a JSON trajectory entry
(default ``BENCH_plan.json`` at the repo root). Exits non-zero when the
warm per-world headline falls below the acceptance floor (3.0x full, 1.5x
quick — the quick floor is looser because CI machines are noisy).
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for _p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from repro.core import IFactSet
from repro.model import GlobalDatabase, fact
from repro.plan import (
    evaluate as plan_evaluate,
    plan_stats,
    shared_plan_cache,
)
from repro.queries import evaluate_backtracking, parse_rule

from benchmarks.conftest import write_table

SPEEDUP_FLOOR_FULL = 3.0
SPEEDUP_FLOOR_QUICK = 1.5

JOIN_RULE = "ans(x, z) <- E(x, y), F(y, z)"

RENAME_SHAPES = [
    "ans({0}, {2}) <- E({0}, {1}), F({1}, {2})",
    "ans({0}) <- E({0}, {1}), E({1}, {0})",
    "ans({0}, {1}) <- E({0}, {1})",
    "ans({1}) <- F({0}, {1})",
    "ans({0}, {2}) <- E({0}, {1}), F({1}, {2}), Lt({0}, {2})",
]


def best_of(fn, reps: int) -> float:
    """Fastest of *reps* timed calls, in seconds (standard microbench floor)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_world_pool(pool_size: int, seed: int = 18):
    """Distinct perturbations of one ~60-fact bipartite E/F database."""
    rng = random.Random(seed)
    base_e = [(f"e{i}", f"m{i % 8}") for i in range(30)]
    base_f = [(f"m{i % 8}", f"t{i}") for i in range(30)]
    worlds = []
    for _ in range(pool_size):
        e = [p for p in base_e if rng.random() > 0.08]
        f = [p for p in base_f if rng.random() > 0.08]
        worlds.append(
            GlobalDatabase(
                [fact("E", *p) for p in e] + [fact("F", *p) for p in f]
            )
        )
    return worlds


# -- per-world evaluation ------------------------------------------------------

def run_per_world(quick: bool):
    pool_size, cycles, reps = (50, 6, 2) if quick else (100, 20, 3)
    worlds = make_world_pool(pool_size)
    query = parse_rule(JOIN_RULE)
    evaluations = pool_size * cycles

    # Fidelity first: both arms agree on every world in the pool.
    for world in worlds:
        if plan_evaluate(query, world) != evaluate_backtracking(query, world):
            raise AssertionError("E18: plan and backtracking answers differ")

    def plan_pass():
        for _ in range(cycles):
            for world in worlds:
                plan_evaluate(query, world)

    def boxed_pass():
        for _ in range(cycles):
            for world in worlds:
                evaluate_backtracking(query, world)

    # Cold: every world's scans and indexes built from scratch (one cycle),
    # over fresh fact-set objects with the same interned IDs.
    cold_worlds = [
        GlobalDatabase.from_core(IFactSet(w.core().table, w.core().ids()))
        for w in worlds
    ]
    start = time.perf_counter()
    for world in cold_worlds:
        plan_evaluate(query, world)
    t_cold = (time.perf_counter() - start) * cycles  # scaled to pass size
    # Warm: the steady state the possible-worlds loops live in.
    t_plan = best_of(plan_pass, reps)
    t_boxed = best_of(boxed_pass, reps)
    warm_speedup = t_boxed / t_plan
    cold_speedup = t_boxed / t_cold
    rows = [
        ["per-world (cold)", f"{evaluations} evals, pool={pool_size}",
         f"{t_cold * 1000:.1f} ms", f"{t_boxed * 1000:.1f} ms",
         f"{cold_speedup:.2f}x"],
        ["per-world (warm)", f"{evaluations} evals, pool={pool_size}",
         f"{t_plan * 1000:.1f} ms", f"{t_boxed * 1000:.1f} ms",
         f"{warm_speedup:.2f}x"],
    ]
    record = {
        "pool_size": pool_size,
        "evaluations": evaluations,
        "plan_cold_ms": round(t_cold * 1000, 3),
        "plan_warm_ms": round(t_plan * 1000, 3),
        "backtracking_ms": round(t_boxed * 1000, 3),
        "cold_speedup": round(cold_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
    }
    return rows, record


# -- alpha-renamed query batch -------------------------------------------------

def renamed_queries(variants_per_shape: int):
    pools = [
        ("x", "y", "z"), ("a", "b", "c"), ("p", "q", "r"),
        ("u", "v", "w"), ("s", "t", "o"), ("k", "l", "n"),
        ("x1", "y1", "z1"), ("x2", "y2", "z2"), ("aa", "bb", "cc"),
        ("q1", "q2", "q3"),
    ]
    queries = []
    for shape in RENAME_SHAPES:
        for pool in pools[:variants_per_shape]:
            queries.append(parse_rule(shape.format(*pool)))
    return queries


def run_rename_batch(quick: bool):
    variants, reps = (4, 3) if quick else (10, 5)
    queries = renamed_queries(variants)
    world = make_world_pool(1, seed=99)[0]

    for q in queries:
        if plan_evaluate(q, world) != evaluate_backtracking(q, world):
            raise AssertionError("E18: rename batch answers differ")

    cache = shared_plan_cache()
    before = cache.stats()

    def plan_pass():
        for q in queries:
            plan_evaluate(q, world)

    def boxed_pass():
        for q in queries:
            evaluate_backtracking(q, world)

    t_plan = best_of(plan_pass, reps)
    t_boxed = best_of(boxed_pass, reps)
    after = cache.stats()
    delta_hits = after.hits - before.hits
    delta_misses = after.misses - before.misses
    hit_rate = (
        delta_hits / (delta_hits + delta_misses)
        if delta_hits + delta_misses else 1.0
    )
    speedup = t_boxed / t_plan
    rows = [
        ["rename batch",
         f"{len(queries)} queries / {len(RENAME_SHAPES)} shapes "
         f"(hit rate {hit_rate:.3f})",
         f"{t_plan * 1000:.1f} ms", f"{t_boxed * 1000:.1f} ms",
         f"{speedup:.2f}x"],
    ]
    record = {
        "queries": len(queries),
        "shapes": len(RENAME_SHAPES),
        "timed_hit_rate": round(hit_rate, 4),
        "plan_ms": round(t_plan * 1000, 3),
        "backtracking_ms": round(t_boxed * 1000, 3),
        "speedup": round(speedup, 2),
    }
    return rows, record


# -- driver --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller pool and fewer reps (CI smoke mode)",
    )
    parser.add_argument(
        "--json", type=Path, default=REPO_ROOT / "BENCH_plan.json",
        help="where to write the JSON trajectory entry",
    )
    args = parser.parse_args(argv)
    floor = SPEEDUP_FLOOR_QUICK if args.quick else SPEEDUP_FLOOR_FULL
    mode = "quick" if args.quick else "full"

    world_rows, world_record = run_per_world(args.quick)
    rename_rows, rename_record = run_rename_batch(args.quick)
    stats = plan_stats()

    headline = world_record["warm_speedup"]
    passed = headline >= floor
    notes = [
        f"mode={mode}; acceptance floor {floor:.1f}x on the warm per-world row",
        f"headline: warm per-world {headline:.2f}x -> "
        f"{'PASS' if passed else 'FAIL'}",
        "warm = repeated evaluation over already-seen worlds (cached scans "
        "and join build sides); cold row scaled to the same evaluation count",
        f"shared plan cache: hits={stats['cache']['hits']} "
        f"misses={stats['cache']['misses']} "
        f"hit_rate={stats['cache']['hit_rate']:.3f}; "
        f"data sources built: {stats['data_sources_built']}",
    ]
    table = write_table(
        "e18_plan",
        "E18: compiled plan pipeline vs backtracking evaluation",
        ["workload", "case", "plan", "backtracking", "speedup"],
        world_rows + rename_rows,
        notes=notes,
    )
    print(table)

    payload = {
        "bench": "e18_plan",
        "date": datetime.date.today().isoformat(),
        "mode": mode,
        "workloads": {
            "per_world": world_record,
            "rename_batch": rename_record,
        },
        "stats": stats,
        "acceptance": {
            "floor": floor,
            "warm_per_world_speedup": headline,
            "passed": passed,
        },
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    if not passed:
        print(
            f"FAIL: warm per-world speedup below the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
