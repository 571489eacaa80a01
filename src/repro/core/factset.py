"""Immutable fact-ID sets: sorted integer backbone + hash index.

An :class:`IFactSet` is the ID-space mirror of
:class:`repro.model.database.GlobalDatabase`: a finite set of interned fact
IDs. Internally it keeps the IDs twice — a sorted integer array (compact,
deterministic iteration, cheap pickling of the *values* not the objects) and
a frozenset (O(1) membership, C-speed union/intersection/difference). The
per-relation index is built lazily from the owning
:class:`~repro.core.symbols.SymbolTable` on first relational access.

State derived from a set (the plan layer's column indexes and statistics)
is kept on the set itself (:meth:`IFactSet.derived`) and leaves the heap
with it, so nothing has to retire a superseded version's artifacts.
"""

from __future__ import annotations

import weakref
from array import array
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple, TypeVar,
)

from repro.core.symbols import SymbolTable

T = TypeVar("T")


class Derivation:
    """How one fact set was derived from another: ``parent ± delta``.

    The statistics catalog (:mod:`repro.plan.statistics`) uses this hint to
    maintain per-relation statistics *incrementally*: when the parent is
    alive with its statistics built and the delta is small relative to the
    derived set, the catalog applies per-fact count updates instead of
    rescanning the whole extension. The parent is held through a weak
    reference so the hint never extends any fact set's lifetime.
    """

    __slots__ = ("_parent", "added", "removed")

    def __init__(
        self,
        parent: "IFactSet",
        added: FrozenSet[int],
        removed: FrozenSet[int],
    ):
        self._parent = weakref.ref(parent)
        self.added = added
        self.removed = removed

    def parent(self) -> Optional["IFactSet"]:
        """The base fact set, or ``None`` once it has been collected."""
        return self._parent()

    def delta_size(self) -> int:
        """Total number of fact IDs the derivation touched."""
        return len(self.added) + len(self.removed)


class IFactSet:
    """An immutable set of fact IDs over one symbol table."""

    __slots__ = (
        "table", "_ids", "_sorted", "_by_relation", "_grouped", "_hash",
        "_derivation", "_derived", "__weakref__",
    )

    def __init__(
        self,
        table: SymbolTable,
        ids: Iterable[int] = (),
        derivation: Optional[Derivation] = None,
    ):
        self.table = table
        self._ids: FrozenSet[int] = (
            ids if isinstance(ids, frozenset) else frozenset(ids)  # boxed-ok: ints
        )
        self._sorted: Optional[array] = None
        self._by_relation: Optional[Dict[int, FrozenSet[int]]] = None
        self._grouped: Optional[Dict[int, Tuple[Tuple[int, ...], ...]]] = None
        self._hash = hash(self._ids)
        self._derivation = derivation
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
        """The set union, hinted as ``self + (other - self)``."""
        merged = self._ids | other._ids
        hint = Derivation(self, merged - self._ids, frozenset())  # boxed-ok: ints
        return IFactSet(self.table, merged, derivation=hint)

    def intersection(self, other: "IFactSet") -> "IFactSet":
        """The set intersection, hinted as ``self - (self - other)``."""
        kept = self._ids & other._ids
        hint = Derivation(self, frozenset(), self._ids - kept)  # boxed-ok: ints
        return IFactSet(self.table, kept, derivation=hint)

    def difference(self, other: "IFactSet") -> "IFactSet":
        """The set difference, hinted as a removal from ``self``."""
        kept = self._ids - other._ids
        hint = Derivation(self, frozenset(), self._ids - kept)  # boxed-ok: ints
        return IFactSet(self.table, kept, derivation=hint)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def with_ids(self, extra: Iterable[int]) -> "IFactSet":
        """This set plus *extra* fact IDs (derivation-hinted)."""
        merged = self._ids | set(extra)
        hint = Derivation(self, merged - self._ids, frozenset())  # boxed-ok: ints
        return IFactSet(self.table, merged, derivation=hint)

    def without_ids(self, removed: Iterable[int]) -> "IFactSet":
        """This set minus *removed* fact IDs (derivation-hinted)."""
        kept = self._ids - set(removed)
        hint = Derivation(self, frozenset(), self._ids - kept)  # boxed-ok: ints
        return IFactSet(self.table, kept, derivation=hint)

    def derivation(self) -> Optional[Derivation]:
        """The derivation hint this set was built with, if any."""
        return self._derivation

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
        return self._by_relation.get(rid, frozenset())  # boxed-ok: ints

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
