"""Immutable fact-ID sets: sorted integer backbone + hash index.

An :class:`IFactSet` is the ID-space mirror of
:class:`repro.model.database.GlobalDatabase`: a finite set of interned fact
IDs. Internally it keeps the IDs twice — a sorted integer array (compact,
deterministic iteration, cheap pickling of the *values* not the objects) and
a frozenset (O(1) membership, C-speed union/intersection/difference). The
per-relation index is built lazily from the owning
:class:`~repro.core.symbols.SymbolTable` on first relational access.

A set derived from another (:meth:`~IFactSet.with_ids`,
:meth:`~IFactSet.without_ids` and the set algebra, one path for all of them)
costs its delta: the parent's IDs are copied once at C speed, only the
removed and added IDs are looked at, and when the parent has built its
per-relation index or grouped view, the child starts from a copy in which
only the relations the delta touches are rebuilt.

State derived from a set (the plan layer's column indexes and statistics)
is kept on the set itself (:meth:`IFactSet.derived`) and leaves the heap
with it, so nothing has to retire a superseded version's artifacts.
"""

from __future__ import annotations

from array import array
from itertools import filterfalse
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple,
    TypeVar,
)

from repro.core.symbols import SymbolTable

T = TypeVar("T")

_NO_IDS: FrozenSet[int] = frozenset()  # boxed-ok: ints


class IFactSet:
    """An immutable set of fact IDs over one symbol table."""

    __slots__ = (
        "table", "_ids", "_sorted", "_by_relation", "_grouped", "_hash",
        "_derived", "__weakref__",
    )

    def __init__(self, table: SymbolTable, ids: Iterable[int] = ()):
        self.table = table
        self._ids: FrozenSet[int] = (
            ids if isinstance(ids, frozenset) else frozenset(ids)  # boxed-ok: ints
        )
        self._sorted: Optional[array] = None
        self._by_relation: Optional[Dict[int, FrozenSet[int]]] = None
        self._grouped: Optional[Dict[int, Tuple[Tuple[int, ...], ...]]] = None
        self._hash = hash(self._ids)
        self._derived: Dict[Callable, object] = {}

    # -- set interface ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, fid: int) -> bool:
        return fid in self._ids

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_ids())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IFactSet) and self._ids == other._ids

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "IFactSet") -> bool:
        return self._ids <= other._ids

    def __lt__(self, other: "IFactSet") -> bool:
        return self._ids < other._ids

    def ids(self) -> FrozenSet[int]:
        """The underlying frozenset of fact IDs."""
        return self._ids

    def sorted_ids(self) -> array:
        """The IDs as a sorted integer array (built once, then cached)."""
        if self._sorted is None:
            self._sorted = array("q", sorted(self._ids))
        return self._sorted

    # -- algebra ---------------------------------------------------------------

    def union(self, other: "IFactSet") -> "IFactSet":
        """The set union."""
        return self._derive(_NO_IDS, other._ids)

    def intersection(self, other: "IFactSet") -> "IFactSet":
        """The set intersection."""
        return self._derive(self._ids - other._ids, _NO_IDS)

    def difference(self, other: "IFactSet") -> "IFactSet":
        """The set difference."""
        return self._derive(other._ids, _NO_IDS)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def with_ids(self, extra: Iterable[int]) -> "IFactSet":
        """This set plus *extra* fact IDs."""
        return self._derive(_NO_IDS, extra)

    def without_ids(self, removed: Iterable[int]) -> "IFactSet":
        """This set minus *removed* fact IDs."""
        return self._derive(removed, _NO_IDS)

    def _derive(self, removed: Iterable[int], added: Iterable[int]) -> "IFactSet":
        """``(self - removed) | added``, at the cost of the delta.

        Looks only at the IDs actually removed and actually added (the ID
        set itself is copied once), and returns this set itself when there
        are none. The child starts with a copy
        of whichever relational views this set has built (``by_relation()``
        and ``grouped()``) in which only the touched relations are rebuilt:
        the parent's entries minus the removed facts, plus the added ones.
        """
        ids = self._ids
        gone = ids.intersection(removed)
        new = frozenset(added).difference(ids)  # boxed-ok: ints
        if not gone and not new:
            return self
        kept = ids.difference(gone) if gone else ids
        child = IFactSet(self.table, kept.union(new) if new else kept)
        if self._by_relation is None and self._grouped is None:
            return child
        fact_tuple = self.table.fact_tuple
        touched: Dict[int, Tuple[List[int], List[int]]] = {}
        for side, fids in enumerate((gone, new)):
            for fid in fids:
                rid = fact_tuple(fid)[0]
                touched.setdefault(rid, ([], []))[side].append(fid)
        if self._by_relation is not None:
            index = dict(self._by_relation)
            for rid, (out, into) in touched.items():
                rest = index.get(rid, _NO_IDS).difference(out).union(into)
                if rest:
                    index[rid] = rest
                else:
                    del index[rid]
            child._by_relation = index
        if self._grouped is not None:
            grouped = dict(self._grouped)
            for rid, (out, into) in touched.items():
                rows = grouped.get(rid, ())
                if out:
                    dropped = {fact_tuple(fid)[1:] for fid in out}
                    rows = tuple(filterfalse(dropped.__contains__, rows))
                rows += tuple(fact_tuple(fid)[1:] for fid in into)
                if rows:
                    grouped[rid] = rows
                else:
                    del grouped[rid]
            child._grouped = grouped
        return child

    # -- derived state ---------------------------------------------------------

    def derived(self, build: Callable[["IFactSet"], T]) -> T:
        """``build(self)``, computed on first use and kept on this set.

        The artifact lives exactly as long as the set: a superseded version
        takes its artifacts with it when its last reference goes, and a set
        over IDs reused after a symbol rollback starts with none. *build*
        must not keep a reference to the set, or the two form a cycle that
        only the garbage collector frees. Two threads racing on first use
        may both build; every caller gets the value stored first.
        """
        value = self._derived.get(build)
        if value is None:
            value = self._derived.setdefault(build, build(self))
        return value

    def built(self, build: Callable[["IFactSet"], T]) -> Optional[T]:
        """What :meth:`derived` keeps for *build*, without building it."""
        return self._derived.get(build)

    # -- relational access -----------------------------------------------------

    def by_relation(self, rid: int) -> FrozenSet[int]:
        """Fact IDs over relation *rid* (lazy per-relation index)."""
        if self._by_relation is None:
            index: Dict[int, set] = {}
            fact_relation = self.table.fact_relation
            for fid in self._ids:
                index.setdefault(fact_relation(fid), set()).add(fid)
            self._by_relation = {
                r: frozenset(fids) for r, fids in index.items()  # boxed-ok: ints
            }
        return self._by_relation.get(rid, _NO_IDS)

    def grouped(self) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
        """Relation ID → tuple of argument-ID tuples (lazy, cached).

        The shape :meth:`repro.core.views.CoreView.apply_grouped` consumes;
        converting once per fact set lets every source's ``satisfied_by``
        share the same decoded view of the candidate.
        """
        if self._grouped is None:
            index: Dict[int, list] = {}
            fact_tuple = self.table.fact_tuple
            for fid in self._ids:
                t = fact_tuple(fid)
                index.setdefault(t[0], []).append(t[1:])
            self._grouped = {r: tuple(args) for r, args in index.items()}
        return self._grouped

    def relations(self) -> Tuple[int, ...]:
        """Relation IDs with a non-empty extension, sorted."""
        self.by_relation(-1)  # force the index
        return tuple(sorted(self._by_relation))

    def __repr__(self) -> str:
        return f"IFactSet({len(self._ids)} facts)"
