"""E14 — query-evaluation engines: naive vs the compiled plan pipeline.

The substrate's inner loop (view application inside ``admits``/``poss``)
dominates everything else, so its scaling matters. Two engines, one
two-hop join workload over growing edge relations:

* **naive** — full cross product then filter (the semantic definition);
* **plan** — :func:`repro.queries.evaluate`, the compiled plan pipeline:
  the join order, interned scans and hash joins over the database's cached
  column indexes. Each row times one first-sight evaluation, so it
  includes compiling the plan and building the indexes.

Shape to reproduce: naive is quadratic-in-candidates and falls off a cliff;
the plan pipeline grows with the answer count.
"""

import random
import time

from repro.model import GlobalDatabase, fact
from repro.queries import evaluate, evaluate_naive, parse_rule

from benchmarks.conftest import write_table

TWO_HOP = parse_rule("V(x, z) <- E(x, y), E(y, z)")


def edge_db(n_edges: int, n_nodes: int, seed: int = 1) -> GlobalDatabase:
    rng = random.Random(seed)
    return GlobalDatabase(
        fact("E", rng.randint(1, n_nodes), rng.randint(1, n_nodes))
        for _ in range(n_edges)
    )


def test_e14_engine_scaling_table(benchmark, results_dir):
    """Two-hop join cost per engine, growing the edge relation."""

    def sweep():
        rows = []
        for n_edges in (30, 100, 300, 1000):
            db = edge_db(n_edges, n_nodes=n_edges // 3)

            start = time.perf_counter()
            via_plan = evaluate(TWO_HOP, db)
            plan_time = time.perf_counter() - start

            if n_edges <= 100:
                start = time.perf_counter()
                via_naive = evaluate_naive(TWO_HOP, db)
                naive_time = time.perf_counter() - start
                assert via_naive == via_plan
                naive_cell = f"{naive_time * 1000:.1f} ms"
            else:
                naive_cell = "(skipped)"
            rows.append(
                [
                    n_edges,
                    len(via_plan),
                    naive_cell,
                    f"{plan_time * 1000:.1f} ms",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e14_evaluation",
        "E14: two-hop join — naive vs plan",
        ["|E|", "|answers|", "naive", "plan"],
        rows,
        notes=[
            "both engines agree wherever naive runs (|E| <= 100)",
            "plan = first-sight evaluation: compile, index build and join",
        ],
    )


def test_e14_plan_throughput(benchmark):
    """Steady-state plan evaluation: cached plan and column indexes."""
    db = edge_db(600, 200)
    evaluate(TWO_HOP, db)  # compile the plan, build the indexes
    benchmark(lambda: evaluate(TWO_HOP, db))
