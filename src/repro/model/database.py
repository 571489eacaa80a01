"""Global databases (Section 2.1).

A global database ``D`` over a schema is a finite set of facts. The class is
immutable (so databases can be members of sets of possible worlds) and keeps
a per-relation index used by the query evaluator.

A new version costs its delta: :meth:`GlobalDatabase.with_facts` and
:meth:`GlobalDatabase.without_facts` check only the facts they add, rebuild
only the relations they touch, and, once the parent's interned core is
built, derive the child's from it, interning only the added facts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import NotGroundError
from repro.model.atoms import Atom
from repro.model.schema import GlobalSchema, schema_of_atoms
from repro.model.terms import Constant


class GlobalDatabase:
    """An immutable finite set of facts.

    >>> from repro.model.atoms import fact
    >>> db = GlobalDatabase([fact("R", 1), fact("R", 2), fact("S", 1, 2)])
    >>> len(db)
    3
    >>> sorted(str(f) for f in db.extension("R"))
    ['R(1)', 'R(2)']
    """

    __slots__ = ("_facts", "_by_relation", "_hash", "_core")

    def __init__(self, facts: Iterable[Atom] = ()):
        collected = frozenset(facts)
        for f in collected:
            if not f.is_ground():
                raise NotGroundError(f"database may only contain facts, got {f}")
        self._facts: FrozenSet[Atom] = collected
        by_relation: Dict[str, Set[Atom]] = {}
        for f in collected:
            by_relation.setdefault(f.relation, set()).add(f)
        self._by_relation = {
            name: frozenset(facts_) for name, facts_ in by_relation.items()
        }
        self._hash = hash(self._facts)
        self._core = None

    # -- set interface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __contains__(self, f: Atom) -> bool:
        return f in self._facts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GlobalDatabase) and self._facts == other._facts

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "GlobalDatabase") -> bool:
        return self._facts <= other._facts

    def __lt__(self, other: "GlobalDatabase") -> bool:
        return self._facts < other._facts

    def facts(self) -> FrozenSet[Atom]:
        """The underlying frozen set of facts."""
        return self._facts

    # -- interned core -------------------------------------------------------

    def core(self):
        """The interned :class:`~repro.core.factset.IFactSet` for this database.

        Computed once against the process-wide symbol table and cached. The
        cache never crosses process boundaries (term IDs are process-local),
        so it is dropped on pickling.
        """
        if self._core is None:
            from repro.core.adapters import to_core_database
            from repro.core.symbols import global_table

            self._core = to_core_database(global_table(), self)
        return self._core

    @classmethod
    def from_core(cls, facts) -> "GlobalDatabase":
        """Rebuild a boxed database from an :class:`IFactSet`, keeping the
        interned form as the pre-populated :meth:`core` cache.
        """
        from repro.core.adapters import from_core_database

        db = from_core_database(facts.table, facts)
        db._core = facts
        return db

    def __getstate__(self):
        return (self._facts,)

    def __setstate__(self, state):
        self.__init__(state[0])

    # -- relational access ---------------------------------------------------

    def extension(self, relation: str) -> FrozenSet[Atom]:
        """``D(R)``: all facts over relation *relation* (Section 2.1)."""
        return self._by_relation.get(relation, frozenset())

    def relations(self) -> Tuple[str, ...]:
        """Relation names with a non-empty extension, sorted."""
        return tuple(sorted(self._by_relation))

    def tuples(self, relation: str) -> Set[Tuple]:
        """Extension of *relation* as raw Python value tuples."""
        return {tuple(c.value for c in f.args) for f in self.extension(relation)}

    def constants(self) -> Set[Constant]:
        """The active domain: every constant appearing in some fact."""
        out: Set[Constant] = set()
        for f in self._facts:
            out.update(f.args)
        return out

    def schema(self) -> GlobalSchema:
        """The schema inferred from the stored facts."""
        return schema_of_atoms(self._facts)

    # -- algebraic combinations ----------------------------------------------

    def union(self, other: "GlobalDatabase") -> "GlobalDatabase":
        """Set union of two databases."""
        return GlobalDatabase(self._facts | other._facts)

    def intersection(self, other: "GlobalDatabase") -> "GlobalDatabase":
        """Set intersection of two databases."""
        return GlobalDatabase(self._facts & other._facts)

    def difference(self, other: "GlobalDatabase") -> "GlobalDatabase":
        """Set difference of two databases."""
        return GlobalDatabase(self._facts - other._facts)

    def with_facts(self, extra: Iterable[Atom]) -> "GlobalDatabase":
        """A new database with *extra* facts added."""
        return self._derive((), extra)

    def without_facts(self, removed: Iterable[Atom]) -> "GlobalDatabase":
        """A new database with *removed* facts dropped."""
        return self._derive(removed, ())

    def _derive(
        self, removed: Iterable[Atom], added: Iterable[Atom]
    ) -> "GlobalDatabase":
        """``(self - removed) | added``, at the cost of the delta.

        Only the facts actually added are checked for groundness; the
        per-relation index is copied with only the touched relations
        rebuilt; and when this database's core is built, the child's is
        derived from it (:meth:`IFactSet.with_ids
        <repro.core.factset.IFactSet.with_ids>` and ``without_ids`` share
        that path). Removed facts are looked up in the symbol table, never
        interned. Returns this database itself when nothing changes.
        """
        facts = self._facts
        gone = facts.intersection(removed)
        new = frozenset(added).difference(facts)
        for f in new:
            if not f.is_ground():
                raise NotGroundError(f"database may only contain facts, got {f}")
        if not gone and not new:
            return self
        child = object.__new__(GlobalDatabase)
        kept = facts.difference(gone) if gone else facts
        child._facts = kept.union(new) if new else kept
        child._hash = hash(child._facts)
        index = dict(self._by_relation)
        touched: Dict[str, Tuple[List[Atom], List[Atom]]] = {}
        for side, delta in enumerate((gone, new)):
            for f in delta:
                touched.setdefault(f.relation, ([], []))[side].append(f)
        for name, (out, into) in touched.items():
            rest = index.get(name, frozenset()).difference(out).union(into)
            if rest:
                index[name] = rest
            else:
                del index[name]
        child._by_relation = index
        core = self._core
        if core is not None:
            from repro.core.adapters import fact_of_atom

            table = core.table
            find = table.find_constant
            # A removed fact is in this database, so its core holds its ID:
            # look it up, never intern (a key holding None matches nothing).
            gone_ids = [
                table.find_fact(
                    table.find_relation(f.relation),
                    (find(c.value) for c in f.args),
                )
                for f in gone
            ]
            core = core.without_ids(gone_ids).with_ids(
                fact_of_atom(table, f) for f in new
            )
        child._core = core
        return child

    def restrict_to(self, relations: Iterable[str]) -> "GlobalDatabase":
        """Only the facts over the given relation names."""
        wanted = set(relations)
        return GlobalDatabase(f for f in self._facts if f.relation in wanted)

    def __repr__(self) -> str:
        shown = ", ".join(str(f) for f in sorted(self._facts))
        return f"GlobalDatabase({{{shown}}})"


EMPTY_DATABASE = GlobalDatabase()
