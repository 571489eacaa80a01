"""Tableaux over a global schema (Section 4).

A tableau is a finite set of atoms (possibly with variables). The key
operation is *embedding*: finding valuations σ with ``σ(U) ⊆ D`` — the
engine behind constraint satisfaction and ``rep(T)`` membership.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.model.terms import Constant, FreshConstantFactory, Variable
from repro.model.valuation import Substitution, match_atom


class Tableau:
    """An immutable finite set of atoms, with embedding search.

    >>> from repro.model import atom, Variable
    >>> t = Tableau([atom("R", "a", Variable("x"))])
    >>> len(t)
    1
    """

    __slots__ = ("atoms", "_hash", "_core")

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.atoms: FrozenSet[Atom] = frozenset(atoms)
        self._hash = hash(self.atoms)
        self._core = None

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tableau) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __or__(self, other: "Tableau") -> "Tableau":
        return Tableau(self.atoms | other.atoms)

    def variables(self) -> Set[Variable]:
        """All variables occurring in the tableau."""
        out: Set[Variable] = set()
        for atom in self.atoms:
            out |= atom.variables()
        return out

    def constants(self) -> Set[Constant]:
        """All constants occurring in the tableau."""
        out: Set[Constant] = set()
        for atom in self.atoms:
            out |= atom.constants()
        return out

    def substitute(self, substitution) -> "Tableau":
        """Apply a substitution/valuation to every atom."""
        return Tableau(a.substitute(substitution) for a in self.atoms)

    def is_ground(self) -> bool:
        """True when no atom contains a variable."""
        return all(a.is_ground() for a in self.atoms)

    def freeze(self, taken_constants: Iterable[Constant] = ()) -> Tuple["Tableau", Substitution]:
        """Replace each variable with a distinct fresh constant.

        Returns the frozen (ground) tableau and the freezing valuation.
        This builds the *canonical database* of the tableau, used by the
        consistency checker's fast path and by containment arguments.
        """
        factory = FreshConstantFactory(
            taken=set(self.constants()) | set(taken_constants), prefix="_frz"
        )
        freezing = Substitution({v: factory.fresh() for v in sorted(self.variables())})
        return self.substitute(freezing), freezing

    def embeddings(
        self,
        database: GlobalDatabase,
        seed: Optional[Substitution] = None,
        prune: Optional[Callable[[Substitution], bool]] = None,
    ) -> Iterator[Substitution]:
        """All valuations σ (over the tableau's variables) with σ(U) ⊆ D.

        Backtracking search ordered by most-constrained atom first. Atoms
        already ground simply require membership in the database. *prune*,
        when given, is a predicate on partial valuations: the search
        abandons every branch whose partial valuation satisfies it.
        """
        atoms = sorted(self.atoms, key=lambda a: (-len(a.constants()), str(a)))
        yield from _embed(
            atoms, 0, database,
            seed if seed is not None else Substitution(), prune,
        )

    def embeds_in(self, database: GlobalDatabase) -> bool:
        """Is there at least one embedding into *database*?

        Runs over the interned representation (:meth:`core` against
        ``database.core()``) — existence of an embedding is representation
        independent, and the integer search avoids building any intermediate
        atoms.
        """
        from repro.tableaux.core import core_embeds

        return core_embeds(self.core(), database.core())

    def core(self):
        """The interned form: a tuple of :class:`~repro.core.iatoms.IAtom`
        in most-constrained-first embedding order, cached per tableau.

        Interned against the process-wide symbol table; dropped on pickling
        since term IDs do not survive process boundaries.
        """
        if self._core is None:
            from repro.core.adapters import to_core_atom
            from repro.core.symbols import global_table

            table = global_table()
            ordered = sorted(
                self.atoms, key=lambda a: (-len(a.constants()), str(a))
            )
            self._core = tuple(to_core_atom(table, a) for a in ordered)
        return self._core

    def __getstate__(self):
        return (self.atoms,)

    def __setstate__(self, state):
        self.__init__(state[0])

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in sorted(self.atoms))
        return f"Tableau({{{inner}}})"


def _embed(
    atoms, index: int, database: GlobalDatabase, substitution: Substitution,
    prune: Optional[Callable[[Substitution], bool]],
) -> Iterator[Substitution]:
    if prune is not None and prune(substitution):
        return
    if index == len(atoms):
        yield substitution
        return
    pattern = atoms[index].substitute(substitution)
    if pattern.is_ground():
        if pattern in database:
            yield from _embed(atoms, index + 1, database, substitution, prune)
        return
    for candidate in database.extension(pattern.relation):
        extended = match_atom(pattern, candidate, substitution)
        if extended is not None:
            yield from _embed(atoms, index + 1, database, extended, prune)
