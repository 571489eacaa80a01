"""Atoms and facts (Section 2.1).

An *atom* is ``R(e_1, ..., e_k)`` where ``R`` is a relation name and each
``e_i`` is a constant or a variable. A *fact* is an atom without variables.
Facts are simply ground atoms: :meth:`Atom.is_ground` discriminates, and
:func:`fact` is a convenience constructor that enforces groundness.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple

from repro.exceptions import ModelError, NotGroundError
from repro.model.terms import (
    Constant,
    Term,
    Variable,
    as_term,
    term_sort_key,
)


class Atom:
    """An atom ``R(e_1, ..., e_k)`` over relation name ``relation``.

    Atoms are immutable and hashable. Arguments are coerced with
    :func:`repro.model.terms.as_term`, so plain Python values become
    constants:

    >>> Atom("Temperature", (438432, 1990, 7, Variable("v")))
    Atom('Temperature', (Constant(438432), Constant(1990), Constant(7), Variable('v')))
    """

    __slots__ = ("relation", "args", "_hash", "_ground", "_vars", "_consts")

    def __init__(self, relation: str, args: Iterable[Any] = ()):
        if not isinstance(relation, str) or not relation:
            raise ModelError(f"relation name must be a non-empty string: {relation!r}")
        self.relation = relation
        self.args: Tuple[Term, ...] = tuple(as_term(a) for a in args)
        self._hash = hash((relation, self.args))
        self._ground = all(isinstance(a, Constant) for a in self.args)
        self._vars: "frozenset | None" = None
        self._consts: "frozenset | None" = None

    @classmethod
    def from_constants(cls, relation: str, args: Tuple[Constant, ...]) -> "Atom":
        """A fact from a relation name and a tuple of constants.

        The trusted constructor of the ID-to-boxed decoders: it skips the
        name check, :func:`~repro.model.terms.as_term` and the groundness
        scan, and equals ``Atom(relation, args)`` in every respect.
        """
        atom = object.__new__(cls)
        atom.relation = relation
        atom.args = args
        atom._hash = hash((relation, args))
        atom._ground = True
        atom._vars = atom._consts = None
        return atom

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def is_ground(self) -> bool:
        """True when the atom contains no variables (i.e. it is a fact).

        Precomputed at construction; no per-call argument scan.
        """
        return self._ground

    def variables(self) -> frozenset:
        """The set of variables occurring in the atom (computed once)."""
        if self._vars is None:
            self._vars = frozenset(
                a for a in self.args if isinstance(a, Variable)
            )
        return self._vars

    def constants(self) -> frozenset:
        """The set of constants occurring in the atom (computed once)."""
        if self._consts is None:
            self._consts = frozenset(
                a for a in self.args if isinstance(a, Constant)
            )
        return self._consts

    def substitute(self, mapping) -> "Atom":
        """Apply a term mapping (dict or Substitution/Valuation) to the atom.

        Terms without an image are left unchanged, matching the paper's
        convention that valuations are partial maps extended with identity.
        Ground atoms are fixed points, so they return themselves unchanged.
        """
        if self._ground:
            return self
        getter = mapping.get if hasattr(mapping, "get") else mapping.__getitem__
        return Atom(self.relation, tuple(getter(a, a) for a in self.args))

    def rename_relation(self, relation: str) -> "Atom":
        """The same argument tuple under a different relation name."""
        return Atom(relation, self.args)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from its parts, so the hash is the loading process's.
        return (Atom, (self.relation, self.args))

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.args!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.relation}({inner})"

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        key_self = (self.relation, tuple(term_sort_key(a) for a in self.args))
        key_other = (other.relation, tuple(term_sort_key(a) for a in other.args))
        return key_self < key_other

    def __iter__(self) -> Iterator[Term]:
        return iter(self.args)


def fact(relation: str, *values: Any) -> Atom:
    """Build a fact (ground atom), raising if any argument is a variable.

    >>> fact("Station", 438432, 43.7, -79.4, "Canada").is_ground()
    True
    """
    atom = Atom(relation, values)
    if not atom.is_ground():
        raise NotGroundError(f"fact contains variables: {atom}")
    return atom


def atom(relation: str, *args: Any) -> Atom:
    """Build an atom; shorthand mirroring :func:`fact` for non-ground use."""
    return Atom(relation, args)
