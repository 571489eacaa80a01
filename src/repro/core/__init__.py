"""`repro.core` — the interned substrate under the hot paths.

Every layer that sits on a hot path (block decomposition, tableau
embedding, the CONSISTENCY search, engine memo keys) ultimately compares
and hashes the same handful of symbols — constants, variables, relation
names, ground facts — over and over. The boxed model objects
(:class:`~repro.model.terms.Constant`, :class:`~repro.model.atoms.Atom`,
frozensets of them) pay tuple hashing and object equality on every one of
those comparisons. This package interns each distinct symbol once into a
dense integer ID and lets the hot paths speak integers natively:

* :class:`SymbolTable` — process-wide interning of constants, variables,
  relation names, ground facts, and hash-consed :class:`IAtom` patterns;
  an ID, once handed out, is permanent.
* :class:`IAtom` — an atom as ``(relation id, term ids...)`` with a cached
  hash; negative term IDs are variables, non-negative IDs constants.
* :class:`IFactSet` — an immutable set of fact IDs backed by a sorted
  integer array plus a hash index: O(1) membership, C-speed set algebra.
* :mod:`repro.core.adapters` — the lossless boundary: ``to_core``/
  ``from_core`` for terms, atoms, databases, tableaux, views, sources and
  collections. The boxed API stays the public surface; the adapters are how
  it reaches the interned fast paths underneath.
* :mod:`repro.core.views` — ID-level conjunctive views and the
  soundness/completeness ``admits`` predicate over :class:`IFactSet`.

The boxed algorithms these paths replaced live in ``tests/oracles/``, where
the differential tests hold the interned paths to them.

See ``docs/core.md`` for the representation, the interning invariants, and
the adapter boundary contract.
"""

from repro.core.symbols import (
    SymbolSnapshot,
    SymbolTable,
    global_table,
)
from repro.core.iatoms import IAtom
from repro.core.factset import IFactSet
from repro.core.adapters import (
    atom_of_fact,
    fact_of_atom,
    from_core_atom,
    from_core_collection,
    from_core_database,
    from_core_source,
    from_core_term,
    from_core_view,
    to_core_atom,
    to_core_collection,
    to_core_database,
    to_core_source,
    to_core_term,
    to_core_view,
)
from repro.core.views import CoreCollection, CoreSource, CoreView

__all__ = [
    "SymbolSnapshot",
    "SymbolTable",
    "global_table",
    "IAtom",
    "IFactSet",
    "atom_of_fact",
    "fact_of_atom",
    "from_core_atom",
    "from_core_collection",
    "from_core_database",
    "from_core_source",
    "from_core_term",
    "from_core_view",
    "to_core_atom",
    "to_core_collection",
    "to_core_database",
    "to_core_source",
    "to_core_term",
    "to_core_view",
    "CoreCollection",
    "CoreSource",
    "CoreView",
]
