"""The symbol table: dense integer IDs for every symbol the hot paths touch.

Interning invariants (documented in ``docs/core.md`` and relied on by the
adapters and the fast paths):

* **Determinism within a process** — the ID of a symbol is fixed the moment
  it is first interned and never changes; re-interning returns the same ID.
* **Namespaces** — constants, relations, facts and atoms each get their own
  dense ``0, 1, 2, ...`` sequence. Variables share the *term* ID space with
  constants via the sign: variable IDs are negative (``-1, -2, ...``),
  constant IDs non-negative, so ``tid < 0`` discriminates in one comparison.
* **Equality mirrors the boxed model** — two constants intern to the same ID
  exactly when the boxed :class:`~repro.model.terms.Constant` objects are
  equal (Python ``==`` on the wrapped values), and likewise for variables
  (by name), relations (by name), and facts (by relation + argument IDs).
* **IDs are process-local** — they are *not* stable across processes. Data
  shipped to worker processes goes through value-level encodings (the
  kernel's wire format) or boxed objects, never raw IDs.
* **One boxed term per constant** — built on first decode and handed to
  every decoder by :meth:`SymbolTable.constant_term`.
* **Publish after the reverse entry** — a new ID enters the lock-free
  lookup dict only once it resolves.
* **IDs are permanent** — the table only grows, so no ID is ever given a
  second meaning; code that may abort checks its input by value before it
  interns.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.exceptions import ModelError
from repro.core.iatoms import IAtom
from repro.model.terms import Constant


class SymbolSnapshot(NamedTuple):
    """A point-in-time size vector of a table's namespaces."""

    constants: int
    variables: int
    relations: int
    facts: int
    atoms: int


class SymbolTable:
    """Thread-safe interning of constants, variables, relations and facts.

    >>> table = SymbolTable()
    >>> table.constant("a") == table.constant("a")
    True
    >>> table.variable("x") < 0  # variables are negative term IDs
    True
    >>> rid = table.relation("R")
    >>> fid = table.fact(rid, (table.constant("a"),))
    >>> table.fact_args(fid) == (table.constant("a"),)
    True
    """

    __slots__ = (
        "_lock",
        "_constants",
        "_constant_values",
        "_constant_terms",
        "_variables",
        "_variable_names",
        "_relations",
        "_relation_names",
        "_facts",
        "_fact_tuples",
        "_atoms",
        "_atom_keys",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._constants: Dict[Any, int] = {}
        self._constant_values: List[Any] = []
        self._constant_terms: List[Optional[Constant]] = []
        self._variables: Dict[str, int] = {}
        self._variable_names: List[str] = []
        self._relations: Dict[str, int] = {}
        self._relation_names: List[str] = []
        self._facts: Dict[Tuple[int, ...], int] = {}
        self._fact_tuples: List[Tuple[int, ...]] = []
        self._atoms: Dict[Tuple, IAtom] = {}
        self._atom_keys: List[Tuple] = []

    # -- interning -------------------------------------------------------------

    def constant(self, value: Any) -> int:
        """Intern a constant value; returns its non-negative term ID."""
        try:
            cid = self._constants.get(value)
        except TypeError as exc:
            raise ModelError(
                f"constant value must be hashable: {value!r}"
            ) from exc
        if cid is not None:
            return cid
        with self._lock:
            cid = self._constants.get(value)
            if cid is None:
                cid = len(self._constant_values)
                self._constant_values.append(value)
                self._constant_terms.append(None)
                self._constants[value] = cid
            return cid

    def variable(self, name: str) -> int:
        """Intern a variable name; returns its negative term ID."""
        vid = self._variables.get(name)
        if vid is not None:
            return vid
        if not isinstance(name, str) or not name:
            raise ModelError(
                f"variable name must be a non-empty string: {name!r}"
            )
        with self._lock:
            vid = self._variables.get(name)
            if vid is None:
                vid = -(len(self._variable_names) + 1)
                self._variable_names.append(name)
                self._variables[name] = vid
            return vid

    def relation(self, name: str) -> int:
        """Intern a relation name; returns its relation ID."""
        rid = self._relations.get(name)
        if rid is not None:
            return rid
        if not isinstance(name, str) or not name:
            raise ModelError(
                f"relation name must be a non-empty string: {name!r}"
            )
        with self._lock:
            rid = self._relations.get(name)
            if rid is None:
                rid = len(self._relation_names)
                self._relation_names.append(name)
                self._relations[name] = rid
            return rid

    def fact(self, rid: int, arg_ids: Iterable[int]) -> int:
        """Intern a ground fact ``(rid, cid...)``; returns its fact ID."""
        key = (rid, *arg_ids)
        fid = self._facts.get(key)
        if fid is not None:
            return fid
        for tid in key[1:]:
            if tid < 0:
                raise ModelError(
                    "facts may only contain constant IDs (got a variable)"
                )
        with self._lock:
            fid = self._facts.get(key)
            if fid is None:
                fid = len(self._fact_tuples)
                self._fact_tuples.append(key)
                self._facts[key] = fid
            return fid

    def iatom(self, rid: int, arg_ids: Iterable[int]) -> IAtom:
        """Hash-cons an atom pattern; equal patterns share one object."""
        args = tuple(arg_ids)
        key = (rid, args)
        atom = self._atoms.get(key)
        if atom is not None:
            return atom
        with self._lock:
            atom = self._atoms.get(key)
            if atom is None:
                atom = IAtom(rid, args)
                self._atoms[key] = atom
                self._atom_keys.append(key)
            return atom

    # -- non-growing lookups ---------------------------------------------------

    def find_constant(self, value: Any) -> Optional[int]:
        """The ID of *value* if already interned; ``None`` otherwise."""
        try:
            return self._constants.get(value)
        except TypeError:
            return None

    def find_relation(self, name: str) -> Optional[int]:
        """The relation ID for *name*, or ``None`` if never interned."""
        return self._relations.get(name)

    def find_fact(self, rid: int, arg_ids: Iterable[int]) -> Optional[int]:
        """The fact ID for ``(rid, args...)``, or ``None`` if absent."""
        return self._facts.get((rid, *arg_ids))

    # -- reverse lookups -------------------------------------------------------

    def constant_value(self, cid: int) -> Any:
        """The boxed value behind a constant ID."""
        return self._constant_values[cid]

    def constant_term(self, cid: int) -> Constant:
        """The shared boxed :class:`~repro.model.terms.Constant` of an ID.

        Built on first decode and kept for the life of the table.
        """
        term = self._constant_terms[cid]
        if term is None:
            term = Constant(self._constant_values[cid])  # boxed-ok: one term per symbol, built once
            self._constant_terms[cid] = term
        return term

    def variable_name(self, vid: int) -> str:
        """The name behind a (negative) variable ID."""
        return self._variable_names[-vid - 1]

    def relation_name(self, rid: int) -> str:
        """The name behind a relation ID."""
        return self._relation_names[rid]

    def fact_tuple(self, fid: int) -> Tuple[int, ...]:
        """``(rid, cid...)`` behind a fact ID."""
        return self._fact_tuples[fid]

    def fact_relation(self, fid: int) -> int:
        """The relation ID of a fact ID."""
        return self._fact_tuples[fid][0]

    def fact_args(self, fid: int) -> Tuple[int, ...]:
        """The argument constant IDs of a fact ID."""
        return self._fact_tuples[fid][1:]

    # -- introspection ---------------------------------------------------------

    def counts(self) -> SymbolSnapshot:
        """The current size of every namespace."""
        with self._lock:
            return SymbolSnapshot(
                constants=len(self._constant_values),
                variables=len(self._variable_names),
                relations=len(self._relation_names),
                facts=len(self._fact_tuples),
                atoms=len(self._atom_keys),
            )

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"SymbolTable(constants={c.constants}, variables={c.variables}, "
            f"relations={c.relations}, facts={c.facts}, atoms={c.atoms})"
        )


_GLOBAL = SymbolTable()


def global_table() -> SymbolTable:
    """The process-wide symbol table shared by every fast path."""
    return _GLOBAL
