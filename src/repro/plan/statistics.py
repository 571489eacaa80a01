"""The statistics catalog: relation cardinalities and column distinct counts.

The cost model (:mod:`repro.plan.optimizer`) needs two numbers per scan to
price a join order: how many rows a relation holds and how many distinct
values each argument position takes (a constant is a parameter slot, priced
at its column's mean frequency). :class:`TableStatistics` profiles both
from an :class:`~repro.core.factset.IFactSet`'s grouped view, one C-level
pass per relation and column (``len(set(column))``): exact distinct
counts, no HyperLogLog approximation needed at these scales, and nothing
else, because no estimate reads more.

A fact set's statistics live on the set (:meth:`IFactSet.derived
<repro.core.factset.IFactSet.derived>`): profiled once, read by every plan
compiled against it, and freed with it. A new version of a database
(``GlobalDatabase.with_facts`` / ``without_facts``) is profiled afresh
from the grouped view the write derived from its parent's: a few
milliseconds at 21k facts. Everything here speaks interned IDs.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.core.factset import IFactSet


class ColumnStats:
    """The exact distinct count of one argument position."""

    __slots__ = ("distinct",)

    def __init__(self, distinct: int = 0):
        self.distinct = distinct


class RelationStats:
    """Cardinality plus per-argument-position :class:`ColumnStats`."""

    __slots__ = ("cardinality", "columns")

    def __init__(self, cardinality: int = 0, columns: Tuple[ColumnStats, ...] = ()):
        self.cardinality = cardinality
        self.columns = columns

    def column(self, position: int) -> Optional[ColumnStats]:
        """Statistics of argument position *position*, if profiled."""
        if 0 <= position < len(self.columns):
            return self.columns[position]
        return None


def _profile_relation(rows: Sequence[Tuple[int, ...]]) -> RelationStats:
    """One relation's statistics from its argument tuples.

    Position *p* counts the values of the rows that have one, so a relation
    used at several arities keeps a column per position of its widest tuple.
    """
    arities = set(map(len, rows))
    if len(arities) == 1:
        columns = zip(*rows)
    else:
        columns = (
            [args[p] for args in rows if len(args) > p]
            for p in range(max(arities))
        )
    return RelationStats(
        len(rows), tuple(ColumnStats(len(set(c))) for c in columns)
    )


class TableStatistics:
    """Per-relation statistics of one fact set, ready for the cost model."""

    __slots__ = ("table", "total_facts", "relations", "__weakref__")

    def __init__(self, table, relations: Dict[int, RelationStats], total: int):
        self.table = table
        self.relations = relations
        self.total_facts = total

    @classmethod
    def profile(cls, facts: IFactSet) -> "TableStatistics":
        """Profile a fact set (one pass per relation over ``grouped()``)."""
        relations = {
            rid: _profile_relation(rows)
            for rid, rows in facts.grouped().items()
        }
        return cls(facts.table, relations, len(facts))

    def relation(self, rid: int) -> Optional[RelationStats]:
        """Statistics of relation *rid*, or ``None`` for an empty relation."""
        return self.relations.get(rid)

    def cardinality(self, rid: int) -> int:
        """Row count of relation *rid* (0 when absent — exact, not a guess)."""
        stats = self.relations.get(rid)
        return stats.cardinality if stats is not None else 0

    def __repr__(self) -> str:
        return (
            f"TableStatistics({len(self.relations)} relations, "
            f"{self.total_facts} facts)"
        )


# -- one catalog entry per fact set --------------------------------------------

# Build counter; the lock only guards this int.
_COUNTER_LOCK = threading.Lock()
_BUILT = 0


def _build_statistics(facts: IFactSet) -> TableStatistics:
    global _BUILT
    stats = TableStatistics.profile(facts)
    with _COUNTER_LOCK:
        _BUILT += 1
    return stats


def statistics_for(facts: IFactSet) -> TableStatistics:
    """The :class:`TableStatistics` of a fact set, built on first use.

    Kept on the fact set, so per-world loops over perturbed databases
    profile each world once.
    """
    return facts.derived(_build_statistics)


def cached_statistics(facts: IFactSet) -> Optional[TableStatistics]:
    """The fact set's statistics if already built, without profiling."""
    return facts.built(_build_statistics)


def statistics_counters() -> Dict[str, int]:
    """Catalog build counter for ``plan_stats()`` / service ``stats()``."""
    with _COUNTER_LOCK:
        return {"built": _BUILT}
