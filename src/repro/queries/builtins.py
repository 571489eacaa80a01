"""Built-in global relations (Section 1.1 uses ``After(y, 1900)``).

Built-ins are infinite, computable relations: they cannot be stored in a
:class:`~repro.model.database.GlobalDatabase`, so the evaluator checks them
once all their arguments are bound to constants. A registry maps relation
names to predicate functions over Python values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.exceptions import BuiltinError
from repro.model.atoms import Atom
from repro.model.terms import Constant


class Builtin:
    """A named computable predicate of fixed arity."""

    __slots__ = ("name", "arity", "predicate")

    def __init__(self, name: str, arity: int, predicate: Callable[..., bool]):
        if arity < 1:
            raise BuiltinError(f"builtin {name} must have positive arity")
        self.name = name
        self.arity = arity
        self.predicate = predicate

    def check(self, values: Iterable[Any]) -> bool:
        """Evaluate the predicate on ground argument values."""
        args = tuple(values)
        if len(args) != self.arity:
            raise BuiltinError(
                f"builtin {self.name} called with {len(args)} args, arity {self.arity}"
            )
        try:
            return bool(self.predicate(*args))
        except TypeError:
            # Heterogeneous comparisons (e.g. `1990 > "x"`) simply fail the
            # predicate rather than aborting evaluation.
            return False

    def __repr__(self) -> str:
        return f"Builtin({self.name!r}, {self.arity})"


class BuiltinRegistry:
    """A set of built-ins visible to one evaluation context.

    The default registry carries the comparison predicates the motivating
    example needs (``After``, ``Before``) plus the standard ones.

    >>> registry = default_registry()
    >>> registry.is_builtin("After")
    True
    """

    __slots__ = ("_builtins", "version")

    def __init__(self, builtins: Iterable[Builtin] = ()):
        self._builtins: Dict[str, Builtin] = {}
        #: Bumped by every :meth:`register`: a query's cached plan key
        #: (:mod:`repro.plan.compiler`) is rendered under one version and
        #: re-rendered when the registry has changed since.
        self.version = 0
        for b in builtins:
            self.register(b)

    def register(self, builtin: Builtin) -> None:
        """Add or replace a builtin."""
        self._builtins[builtin.name] = builtin
        self.version += 1

    def is_builtin(self, name: str) -> bool:
        return name in self._builtins

    def get(self, name: str) -> Optional[Builtin]:
        return self._builtins.get(name)

    def names(self) -> frozenset:
        return frozenset(self._builtins)

    def check_atom(self, atom: Atom) -> bool:
        """Evaluate a ground builtin atom.

        Raises :class:`BuiltinError` if the atom is not ground — callers
        (the evaluator) must defer builtins until their variables are bound.
        """
        builtin = self._builtins.get(atom.relation)
        if builtin is None:
            raise BuiltinError(f"unknown builtin: {atom.relation}")
        if not atom.is_ground():
            raise BuiltinError(f"builtin atom not ground at check time: {atom}")
        values = [arg.value for arg in atom.args if isinstance(arg, Constant)]
        return builtin.check(values)


# Module-level predicates, not lambdas: a parsed query carries this
# registry, and a module-level function pickles by name, so the query can
# be shipped to a worker process. Plan keys identify each by its code object.
def _gt(x, y) -> bool:
    return x > y


def _lt(x, y) -> bool:
    return x < y


def _ge(x, y) -> bool:
    return x >= y


def _le(x, y) -> bool:
    return x <= y


def _eq(x, y) -> bool:
    return x == y


def _ne(x, y) -> bool:
    return x != y


def default_registry() -> BuiltinRegistry:
    """The standard registry: After/Before plus six comparison predicates."""
    return BuiltinRegistry(
        [
            Builtin("After", 2, _gt),
            Builtin("Before", 2, _lt),
            Builtin("Lt", 2, _lt),
            Builtin("Le", 2, _le),
            Builtin("Gt", 2, _gt),
            Builtin("Ge", 2, _ge),
            Builtin("Eq", 2, _eq),
            Builtin("Neq", 2, _ne),
        ]
    )


EMPTY_REGISTRY = BuiltinRegistry()
