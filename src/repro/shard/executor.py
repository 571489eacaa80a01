"""Scatter-gather execution of compiled plans over shard fragments.

The :class:`ShardExecutor` takes a :class:`~repro.shard.store.ShardedDatabase`,
asks the planner (:func:`repro.shard.planner.plan_shards`) which fragments a
query must touch, runs the compiled plan against each fragment, and merges
the per-fragment answers through :mod:`repro.shard.merge`.

Fragments are evaluated in-process, one after another, through the plan
pipeline. They are plain :class:`~repro.core.factset.IFactSet` values, so
scan rows, column indexes, and statistics are kept on each fragment like
on any fact set — the pruning win (touch ``1/N`` of the store) needs no
parallelism at all.

Process-wide counters (queries, fragments, pruned shards, strategy mix)
feed the service's ``stats()`` surface via :func:`shard_stats`.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Tuple

from repro.model.atoms import Atom
from repro.shard.merge import canonical_order, merge_answer_sets
from repro.shard.planner import ShardPlan, explain_shards, plan_shards
from repro.shard.store import ShardedDatabase


# -- process-wide counters -----------------------------------------------------

_COUNTERS_LOCK = threading.Lock()
_COUNTERS: Dict[str, int] = {}  # adhoc-cache-ok: monotone counters, not a cache


def _bump(name: str, delta: int = 1) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + delta


def shard_stats() -> Dict[str, int]:
    """Process-wide shard-execution counters (service ``stats()`` surface)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_shard_stats() -> None:
    """Zero the counters (tests and benchmarks reset with it)."""
    with _COUNTERS_LOCK:
        _COUNTERS.clear()


# -- fragment evaluation -------------------------------------------------------

def evaluate_fragment(query, facts) -> FrozenSet[Atom]:
    """One fragment's answers through the compiled-plan pipeline.

    The in-process mirror of :func:`repro.plan.evaluate` minus the boxed
    database wrapper: fragments are already interned fact sets.
    """
    from repro.plan.compiler import plan_for, plan_params
    from repro.plan.executor import (
        data_source_for, decode_answers, execute_plan,
    )

    plan = plan_for(query, facts=facts)
    rows = execute_plan(
        plan, data_source_for(facts), plan_params(query, plan.table)
    )
    return decode_answers(plan, rows)


# -- the executor --------------------------------------------------------------

class ShardExecutor:
    """Scatter-gather query answering over one sharded database."""

    def __init__(self, sharded: ShardedDatabase):
        self.sharded = sharded
        self.counters: Dict[str, int] = {}

    # -- answering ---------------------------------------------------------------

    def answer(self, query) -> FrozenSet[Atom]:
        """``Q(D)`` via scatter-gather: identical to the single-store path."""
        plan = plan_shards(query, self.sharded)
        self._count_plan(plan)
        return merge_answer_sets(
            evaluate_fragment(query, facts) for _index, facts in plan.fragments
        )

    def answer_ordered(self, query) -> Tuple[Atom, ...]:
        """:meth:`answer` in the canonical total order (service rendering)."""
        return canonical_order(self.answer(query))

    def explain(self, query) -> str:
        """The shard section of EXPLAIN for *query* over this store."""
        return explain_shards(query, self.sharded)

    # -- accounting --------------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta
        _bump(name, delta)

    def _count_plan(self, plan: ShardPlan) -> None:
        self._count("queries")
        self._count("fragments_executed", plan.shards_executed)
        if plan.shards_pruned:
            self._count("shards_pruned", plan.shards_pruned)
        self._count(f"strategy_{plan.strategy}")

    def stats(self) -> Dict[str, object]:
        """This executor's counters plus the store's layout counters."""
        out: Dict[str, object] = dict(self.counters)
        out["layout"] = self.sharded.layout_counters()
        return out


def evaluate_sharded(query, database, spec) -> FrozenSet[Atom]:
    """One-shot sharded evaluation of *query* over a boxed database.

    Partitions the database afresh on every call; a caller that asks
    several queries of one database keeps a :class:`ShardExecutor`.
    """
    return ShardExecutor(ShardedDatabase(database, spec)).answer(query)
