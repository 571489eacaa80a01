"""The statistics catalog: per-relation cardinality, distinct and MCV sketches.

The cost model (:mod:`repro.plan.optimizer`) needs two numbers per scan to
price a join order: how many rows a relation holds and how many distinct
values each argument position takes (a constant is a parameter slot, priced
at its column's mean frequency). :class:`TableStatistics` computes both from
one pass over an :class:`~repro.core.factset.IFactSet`'s grouped view and
keeps the full per-column value-count maps, which buys two things:

* **exact distinct counts** (no HyperLogLog approximation needed at these
  scales), and
* **incremental maintenance** — a fact set derived from an already-profiled
  parent (``with_ids`` / ``without_ids`` / set algebra, see
  :meth:`~repro.core.factset.IFactSet.derivation`) updates the parent's
  counts fact-by-fact instead of rescanning, whenever the delta is small
  relative to the extension.

A fact set's statistics live on the set (:meth:`IFactSet.derived
<repro.core.factset.IFactSet.derived>`): profiled once, read by every plan
compiled against it, and freed with it. Everything here speaks interned
IDs; values decode only in
:meth:`ColumnStats.explain_mcv` for EXPLAIN output.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.factset import IFactSet

#: Most-common-value sketch width: enough to capture heavy hitters in the
#: skewed benchmark workloads without bloating the catalog.
MCV_WIDTH = 8

#: Only maintain incrementally when the delta is at most this fraction of
#: the derived set's size — past that, a fresh scan is cheaper and keeps
#: the count maps compact.
INCREMENTAL_DELTA_FRACTION = 0.5


class ColumnStats:
    """Distinct count and most-common-value sketch of one argument position."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Counter] = None):
        self.counts: Counter = counts if counts is not None else Counter()

    @property
    def distinct(self) -> int:
        """Exact number of distinct values in this column."""
        return len(self.counts)

    def most_common(self, width: int = MCV_WIDTH) -> List[Tuple[int, int]]:
        """The ``(constant_id, count)`` heavy hitters, deterministic order."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:width]

    def explain_mcv(self, table, width: int = 3) -> str:
        """Decoded heavy hitters for EXPLAIN output, e.g. ``'a'×40, 'b'×2``."""
        parts = [
            f"{table.constant_value(cid)!r}×{count}"
            for cid, count in self.most_common(width)
        ]
        return ", ".join(parts)

    def copy(self) -> "ColumnStats":
        """An independent copy (incremental maintenance mutates counts)."""
        return ColumnStats(Counter(self.counts))


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

    def add_tuple(self, args: Tuple[int, ...]) -> None:
        """Count one fact's argument tuple into the statistics."""
        self.cardinality += 1
        if len(args) > len(self.columns):
            self.columns = self.columns + tuple(
                ColumnStats() for _ in range(len(args) - len(self.columns))
            )
        for position, cid in enumerate(args):
            self.columns[position].counts[cid] += 1

    def remove_tuple(self, args: Tuple[int, ...]) -> None:
        """Uncount one fact's argument tuple (incremental maintenance)."""
        self.cardinality -= 1
        for position, cid in enumerate(args):
            column = self.column(position)
            if column is None:
                continue
            remaining = column.counts[cid] - 1
            if remaining > 0:
                column.counts[cid] = remaining
            else:
                del column.counts[cid]

    def copy(self) -> "RelationStats":
        """A deep-enough copy for incremental maintenance."""
        return RelationStats(
            self.cardinality, tuple(c.copy() for c in self.columns)
        )


class TableStatistics:
    """Per-relation statistics of one fact set, ready for the cost model."""

    __slots__ = (
        "table", "total_facts", "relations", "incremental", "__weakref__",
    )

    def __init__(self, table, relations: Dict[int, RelationStats], total: int,
                 incremental: bool = False):
        self.table = table
        self.relations = relations
        self.total_facts = total
        self.incremental = incremental

    @classmethod
    def profile(cls, facts: IFactSet) -> "TableStatistics":
        """Profile a fact set from scratch (one pass over ``grouped()``)."""
        relations: Dict[int, RelationStats] = {}
        for rid, tuples in facts.grouped().items():
            stats = relations.setdefault(rid, RelationStats())
            for args in tuples:
                stats.add_tuple(args)
        return cls(facts.table, relations, len(facts))

    @classmethod
    def derive(
        cls,
        base: "TableStatistics",
        facts: IFactSet,
        added: Iterable[int],
        removed: Iterable[int],
    ) -> "TableStatistics":
        """The base statistics updated by a small add/remove delta."""
        relations = {rid: stats.copy() for rid, stats in base.relations.items()}
        fact_tuple = facts.table.fact_tuple
        for fid in added:
            t = fact_tuple(fid)
            relations.setdefault(t[0], RelationStats()).add_tuple(t[1:])
        for fid in removed:
            t = fact_tuple(fid)
            stats = relations.get(t[0])
            if stats is not None:
                stats.remove_tuple(t[1:])
                if stats.cardinality <= 0:
                    del relations[t[0]]
        return cls(facts.table, relations, len(facts), incremental=True)

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

# Profile/incremental counters; the lock only guards these two ints.
_COUNTER_LOCK = threading.Lock()
_PROFILE_COUNT = 0
_INCREMENTAL_COUNT = 0


def _build_statistics(facts: IFactSet) -> TableStatistics:
    global _PROFILE_COUNT, _INCREMENTAL_COUNT
    base: Optional[TableStatistics] = None
    derivation = facts.derivation()
    if derivation is not None:
        threshold = max(1, int(len(facts) * INCREMENTAL_DELTA_FRACTION))
        if derivation.delta_size() <= threshold:
            parent = derivation.parent()
            if parent is not None:
                base = parent.built(_build_statistics)
    if base is not None:
        stats = TableStatistics.derive(
            base, facts, derivation.added, derivation.removed
        )
        with _COUNTER_LOCK:
            _INCREMENTAL_COUNT += 1
    else:
        stats = TableStatistics.profile(facts)
        with _COUNTER_LOCK:
            _PROFILE_COUNT += 1
    return stats


def statistics_for(facts: IFactSet) -> TableStatistics:
    """The :class:`TableStatistics` of a fact set, built on first use.

    A derivation-hinted fact set whose parent is still alive and already
    profiled updates the parent's statistics incrementally when the delta
    is small (``INCREMENTAL_DELTA_FRACTION``); everything else is profiled
    from scratch. Either way the result is kept on the fact set, so
    per-world loops over perturbed databases profile each world once, at
    delta cost where they can.
    """
    return facts.derived(_build_statistics)


def cached_statistics(facts: IFactSet) -> Optional[TableStatistics]:
    """The fact set's statistics if already built, without profiling."""
    return facts.built(_build_statistics)


def statistics_counters() -> Dict[str, int]:
    """Catalog build counters for ``plan_stats()`` / service ``stats()``."""
    with _COUNTER_LOCK:
        return {
            "built": _PROFILE_COUNT + _INCREMENTAL_COUNT,
            "profiled": _PROFILE_COUNT,
            "incremental": _INCREMENTAL_COUNT,
        }
