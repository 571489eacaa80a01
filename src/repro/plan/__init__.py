"""``repro.plan``: one compiled, cached execution pipeline for every query path.

PR 3 interned the consistency/confidence hot paths; this package does the
same for *query evaluation*. Both query languages — conjunctive queries and
the σ/π/×/∪ relational algebra — compile into one physical plan IR over the
interned core (:mod:`repro.plan.ir`), with:

* interned relation scans carrying pushed-down selections,
* one column index per relation, arity and key positions, kept on the
  database's fact set, which constant lookups and scan-side hash joins
  probe,
* builtin/σ filters applied at the earliest bound point,
* a canonical-form plan cache keyed by query shape — alpha-equivalence,
  with the constants of relational body atoms as parameters each call
  binds (:mod:`repro.plan.compiler` / :mod:`repro.plan.cache`),
* a cost-based adaptive optimizer (:mod:`repro.plan.optimizer`) fed by a
  statistics catalog (:mod:`repro.plan.statistics`) that picks join orders
  and re-optimizes plans whose runtime feedback shows mis-estimates, and
* ``EXPLAIN``-able plans (``python -m repro answer ... --explain``) plus
  measured ``EXPLAIN ANALYZE`` trees (:mod:`repro.plan.analyze`,
  ``--explain-analyze``).

Every evaluator in the repo routes here: ``queries.evaluation.evaluate``,
the algebra interpreter, the rewriting executor, tableaux query answering,
per-world confidence evaluation, and the mediator service's query requests.
The tests hold every compiled plan to ``repro.queries.evaluate_naive``, the
definition of φ(D), and to the boxed backtracking join kept in
``tests/oracles/``.
"""

from repro.plan.analyze import (
    analyze_plan,
    explain_analyze,
    explain_analyze_worlds,
)
from repro.plan.cache import (
    plan_cache_stats,
    plan_cache_stats_dict,
    shared_plan_cache,
)
from repro.plan.compiler import compile_query, plan_for, plan_key, plan_params
from repro.plan.executor import (
    PlanDataSource,
    data_source_for,
    data_sources_built,
    evaluate,
    evaluate_rows,
    execute_plan,
    explain,
)
from repro.plan.ir import CompiledPlan, PlanError
from repro.plan.optimizer import (
    PlanFeedback,
    choose_join_order,
    optimizer_stats,
    reset_optimizer_stats,
)
from repro.plan.statistics import (
    TableStatistics,
    cached_statistics,
    statistics_counters,
    statistics_for,
)

__all__ = [
    "CompiledPlan",
    "PlanDataSource",
    "PlanError",
    "PlanFeedback",
    "TableStatistics",
    "analyze_plan",
    "cached_statistics",
    "choose_join_order",
    "compile_query",
    "data_source_for",
    "data_sources_built",
    "evaluate",
    "evaluate_rows",
    "execute_plan",
    "explain",
    "explain_analyze",
    "explain_analyze_worlds",
    "optimizer_stats",
    "plan_cache_stats",
    "plan_cache_stats_dict",
    "plan_for",
    "plan_key",
    "plan_params",
    "plan_stats",
    "reset_optimizer_stats",
    "shared_plan_cache",
    "statistics_counters",
    "statistics_for",
]


def plan_stats() -> dict:
    """One JSON-serializable snapshot of the plan layer's caches."""
    return {
        "cache": plan_cache_stats_dict(),
        "data_sources_built": data_sources_built(),
        "statistics": statistics_counters(),
        "optimizer": optimizer_stats(),
    }
