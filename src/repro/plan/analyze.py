"""EXPLAIN ANALYZE: measured per-operator cardinalities next to estimates.

The hot interpreter (:func:`repro.plan.executor._run`) stays uninstrumented;
this module keeps a parallel interpreter that mirrors its semantics exactly
(joins go through the same :func:`~repro.plan.executor._hash_join`, so a
scan build side is probed through the per-source column index) while
recording each operator's actual output cardinality.
The annotated tree then renders every plan line as::

    hash-join [left.col0 = right.col0]  (est=310 actual=288 rows)

Two entry points match the two CLI surfaces: :func:`explain_analyze` runs a
query over one database; :func:`explain_analyze_worlds` aggregates the same
measurements over an iterable of possible worlds (the ``answer`` command's
setting, where a query never runs over just one database).

Analyzed executions feed the same runtime-feedback loop as normal ones
(:func:`repro.plan.executor.record_feedback`), so EXPLAIN ANALYZE is an
observation point, not a fork of the adaptive behavior.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Sequence, Tuple

from repro.plan.executor import (
    PlanDataSource,
    _hash_join,
    _project,
    data_source_for,
    explain_text,
    format_est,
    record_feedback,
)
from repro.plan.ir import (
    CompiledPlan,
    FilterNode,
    HashJoinNode,
    PlanError,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionPlanNode,
    UnitNode,
)

#: Per-plan-node actual row counts, keyed by node identity (``id(node)``).
Actuals = Dict[int, int]


def _run_measured(
    node: PlanNode, source: PlanDataSource, actuals: Actuals, params
) -> Sequence[Tuple[int, ...]]:
    """Evaluate *node* and fold its output cardinality into *actuals*."""
    rows = _eval_measured(node, source, actuals, params)
    actuals[id(node)] = actuals.get(id(node), 0) + len(rows)
    return rows


def _eval_measured(
    node: PlanNode, source: PlanDataSource, actuals: Actuals, params
) -> Sequence[Tuple[int, ...]]:
    node_type = type(node)
    if node_type is ScanNode:
        return source.scan_rows(node, params)
    if node_type is HashJoinNode:
        left_rows = _run_measured(node.left, source, actuals, params)
        right = node.right
        if type(right) is not ScanNode:
            return _hash_join(
                node, left_rows,
                _run_measured(right, source, actuals, params), source, params,
            )
        out = _hash_join(node, left_rows, None, source, params)
        # Measure the build side even when the probe side came up empty
        # (the hot path would short-circuit; the diagnostic should not). A
        # probed scan's size is known once its column index exists; only
        # otherwise is the scan materialized for the count.
        size = source.scan_size(right, params)
        if size is None:
            size = len(source.scan_rows(right, params))
        actuals[id(right)] = actuals.get(id(right), 0) + size
        return out
    if node_type is FilterNode:
        predicate = node.predicate
        table = source.table
        return [
            row
            for row in _run_measured(node.child, source, actuals, params)
            if predicate.evaluate(row, table)
        ]
    if node_type is ProjectNode:
        return _project(
            node.columns, _run_measured(node.child, source, actuals, params)
        )
    if node_type is UnitNode:
        return ((),)
    if node_type is UnionPlanNode:
        return tuple(dict.fromkeys(chain.from_iterable(
            _run_measured(child, source, actuals, params)
            for child in node.children
        )))
    raise PlanError(f"unknown plan node {node_type.__name__}")


def analyze_plan(
    plan: CompiledPlan, source: PlanDataSource, params: Sequence[int] = ()
) -> Tuple[frozenset, Actuals]:
    """Run *plan* measured under the binding *params*: ``(answer rows,
    per-node actual cardinalities)``.

    Observations flow into the plan's runtime feedback exactly as a normal
    execution's would.
    """
    table = source.table
    actuals: Actuals = {}
    for predicate in plan.prefilters:
        if not predicate.evaluate((), table):
            return frozenset(), actuals
    rows = frozenset(_run_measured(plan.root, source, actuals, params))
    record_feedback(plan, source, len(rows), params)
    return rows, actuals


def render_analysis(
    plan: CompiledPlan, actuals: Actuals, query, worlds: int = 1
) -> str:
    """The annotated EXPLAIN ANALYZE tree of one (or many) measured runs
    of *query*."""

    def annotate(node: PlanNode) -> str:
        parts = []
        if node.est_rows is not None:
            parts.append(f"est={format_est(node.est_rows)}")
        actual = actuals.get(id(node))
        if actual is not None:
            if worlds > 1:
                parts.append(f"actual={actual / worlds:.1f}/world")
            else:
                parts.append(f"actual={actual}")
        if not parts:
            return ""
        return "  (" + " ".join(parts) + " rows)"

    return explain_text(plan, query, annotate)


def explain_analyze(query, database, table=None) -> str:
    """EXPLAIN ANALYZE one query over one database.

    Compiles (or re-uses) the cost-based plan for the database's fact set,
    executes it with per-operator measurement, and renders the annotated
    tree plus a feedback summary line.
    """
    from repro.plan.compiler import _interned_params, plan_for

    core = database.core()
    plan = plan_for(query, table=table, facts=core)
    source = data_source_for(core)
    result, actuals = analyze_plan(
        plan, source, _interned_params(query, plan.table)
    )
    lines = [render_analysis(plan, actuals, query), f"answers: {len(result)}"]
    feedback = plan.feedback
    if feedback is not None and feedback.checks:
        line = f"max q-error: {feedback.max_q_error:.2f}"
        if feedback.stale:
            line += " (plan marked stale; next cache hit re-optimizes)"
        lines.append(line)
    return "\n".join(lines)


def explain_analyze_worlds(query, worlds: Iterable, table=None) -> str:
    """EXPLAIN ANALYZE aggregated over an iterable of possible worlds.

    The plan is compiled once (against the first world's statistics); every
    world is executed measured, actual cardinalities are summed, and the
    rendering reports per-operator means per world — the shape the
    possible-worlds ``answer`` command actually pays for.
    """
    from repro.plan.compiler import _interned_params, plan_for

    plan = None
    totals: Actuals = {}
    world_count = 0
    answer_total = 0
    for world in worlds:
        core = world.core()
        if plan is None:
            plan = plan_for(query, table=table, facts=core)
            params = _interned_params(query, plan.table)
        source = data_source_for(core)
        result, actuals = analyze_plan(plan, source, params)
        for key, value in actuals.items():
            totals[key] = totals.get(key, 0) + value
        answer_total += len(result)
        world_count += 1
    if plan is None:
        return "no possible worlds to analyze"
    lines = [
        render_analysis(plan, totals, query, worlds=world_count),
        (
            f"worlds analyzed: {world_count}, "
            f"mean answers/world: {answer_total / world_count:.1f}"
        ),
    ]
    feedback = plan.feedback
    if feedback is not None and feedback.checks:
        line = f"max q-error: {feedback.max_q_error:.2f}"
        if feedback.stale:
            line += " (plan marked stale; next cache hit re-optimizes)"
        lines.append(line)
    return "\n".join(lines)
