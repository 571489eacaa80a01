"""The lossless boundary between boxed model objects and interned IDs.

Every ``to_core_*`` / ``from_core_*`` pair round-trips exactly:
``from_core(to_core(x)) == x`` for terms, atoms, databases, views, sources
and collections (property-tested in
``tests/property/test_core_roundtrip.py``). The boxed API stays the public
surface of the library; these adapters are the *only* way model objects
cross into the ID-space fast paths, which keeps the interning invariants in
one reviewable place.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.exceptions import SourceError
from repro.core.factset import IFactSet
from repro.core.iatoms import IAtom
from repro.core.symbols import SymbolTable, global_table


# -- terms ---------------------------------------------------------------------

def to_core_term(table: SymbolTable, term) -> int:
    """Intern a boxed :class:`Constant`/:class:`Variable` to a term ID."""
    from repro.model.terms import Constant

    if isinstance(term, Constant):
        return table.constant(term.value)
    return table.variable(term.name)


def from_core_term(table: SymbolTable, tid: int):
    """The boxed term behind a term ID."""
    from repro.model.terms import Variable

    if tid < 0:
        return Variable(table.variable_name(tid))
    return table.constant_term(tid)


# -- atoms and facts -----------------------------------------------------------

def to_core_atom(table: SymbolTable, atom) -> IAtom:
    """Intern a boxed :class:`Atom` to a hash-consed :class:`IAtom`."""
    rid = table.relation(atom.relation)
    return table.iatom(rid, tuple(to_core_term(table, a) for a in atom.args))


def from_core_atom(table: SymbolTable, iatom: IAtom):
    """The boxed :class:`Atom` behind an :class:`IAtom`."""
    from repro.model.atoms import Atom

    return Atom(
        table.relation_name(iatom.relation),
        tuple(from_core_term(table, tid) for tid in iatom.args),
    )


def fact_of_atom(table: SymbolTable, atom) -> int:
    """Intern a ground boxed atom straight to a fact ID."""
    rid = table.relation(atom.relation)
    return table.fact(rid, (table.constant(a.value) for a in atom.args))


def atom_of_fact(table: SymbolTable, fid: int):
    """The boxed ground :class:`Atom` behind a fact ID."""
    from repro.model.atoms import Atom

    key = table.fact_tuple(fid)
    return Atom.from_constants(
        table.relation_name(key[0]), tuple(map(table.constant_term, key[1:]))
    )


# -- databases -----------------------------------------------------------------

def to_core_database(table: SymbolTable, database) -> IFactSet:
    """Intern a :class:`GlobalDatabase` to an :class:`IFactSet`."""
    return IFactSet(
        table, {fact_of_atom(table, f) for f in database.facts()}
    )


def from_core_database(table: SymbolTable, facts: IFactSet):
    """The boxed :class:`GlobalDatabase` behind an :class:`IFactSet`."""
    from repro.model.database import GlobalDatabase

    return GlobalDatabase(atom_of_fact(table, fid) for fid in facts.ids())


def database_of_grouped(table: SymbolTable, grouped):
    """The boxed :class:`GlobalDatabase` behind a grouped candidate.

    *grouped* maps relation IDs to argument-ID tuples (the shape produced by
    :func:`repro.tableaux.core.ground_atoms_grouped`). Used to materialize
    consistency witnesses — a cold path taken at most once per search.
    """
    from repro.model.atoms import Atom
    from repro.model.database import GlobalDatabase

    term = table.constant_term
    atoms = []
    for rid, arg_tuples in grouped.items():
        name = table.relation_name(rid)
        for args in arg_tuples:
            atoms.append(Atom.from_constants(name, tuple(map(term, args))))
    return GlobalDatabase(atoms)


# -- views, sources, collections -----------------------------------------------

def to_core_view(table: SymbolTable, view):
    """Intern a builtin-free :class:`ConjunctiveQuery` to a :class:`CoreView`.

    Raises :class:`~repro.exceptions.SourceError` when the view's body
    mentions built-in predicates — those stay on the boxed path.
    """
    from repro.core.views import CoreView

    if view.builtin_body():
        raise SourceError(
            f"view {view} uses built-ins; the interned fast path only "
            "supports relational bodies"
        )
    return CoreView(
        to_core_atom(table, view.head),
        tuple(to_core_atom(table, b) for b in view.body),
    )


def from_core_view(table: SymbolTable, core_view):
    """The boxed :class:`ConjunctiveQuery` behind a :class:`CoreView`."""
    from repro.queries.conjunctive import ConjunctiveQuery

    return ConjunctiveQuery(
        from_core_atom(table, core_view.head),
        tuple(from_core_atom(table, b) for b in core_view.body),
    )


def to_core_source(table: SymbolTable, source):
    """Intern a :class:`SourceDescriptor` to a :class:`CoreSource`."""
    from repro.core.views import CoreSource

    extension = frozenset(
        tuple(table.constant(a.value) for a in f.args)
        for f in source.extension
    )
    return CoreSource(
        source.name,
        to_core_view(table, source.view),
        extension,
        source.completeness_bound,
        source.soundness_bound,
    )


def from_core_source(table: SymbolTable, core_source):
    """The boxed :class:`SourceDescriptor` behind a :class:`CoreSource`."""
    from repro.model.atoms import Atom
    from repro.sources.descriptor import SourceDescriptor

    view = from_core_view(table, core_source.view)
    local = view.head.relation
    term = table.constant_term
    extension = [
        Atom.from_constants(local, tuple(map(term, args)))
        for args in core_source.extension
    ]
    return SourceDescriptor(
        view,
        extension,
        core_source.completeness_bound,
        core_source.soundness_bound,
        name=core_source.name,
    )


def to_core_collection(table: SymbolTable, collection):
    """Intern a :class:`SourceCollection` to a :class:`CoreCollection`."""
    from repro.core.views import CoreCollection

    return CoreCollection(
        table, [to_core_source(table, s) for s in collection]
    )


def from_core_collection(table: SymbolTable, core_collection):
    """The boxed :class:`SourceCollection` behind a :class:`CoreCollection`."""
    from repro.sources.collection import SourceCollection

    return SourceCollection(
        from_core_source(table, s) for s in core_collection
    )
