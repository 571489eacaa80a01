"""Terms of the relational model: constants and variables.

The paper (Section 2.1) fixes a set ``dom`` of constants and a set ``var`` of
variables. We model constants as immutable wrappers around hashable Python
values and variables as named symbols. Both are interned-friendly frozen
objects so they can live in sets, dict keys, and tableaux.
"""

from __future__ import annotations

from typing import Any, Tuple, Union

from repro.exceptions import ModelError


class Constant:
    """A constant from ``dom``, wrapping an arbitrary hashable Python value.

    >>> Constant(1900) == Constant(1900)
    True
    >>> Constant("Canada")
    Constant('Canada')
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Any):
        try:
            self._hash = hash(("Constant", value))
        except TypeError as exc:
            raise ModelError(f"constant value must be hashable: {value!r}") from exc
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from the value: the cached hash depends on the process's
        # string-hash seed, which a spawned worker does not share.
        return (Constant, (self.value,))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return _sort_key(self.value) < _sort_key(other.value)


class Variable:
    """A variable from ``var``, identified by its name.

    >>> Variable("x") == Variable("x")
    True
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ModelError(f"variable name must be a non-empty string: {name!r}")
        self.name = name
        self._hash = hash(("Variable", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


Term = Union[Constant, Variable]


def _sort_key(value: Any) -> Tuple[str, str]:
    """A total order over heterogeneous constant values (type name, repr)."""
    return (type(value).__name__, repr(value))


def term_sort_key(term: Term) -> Tuple[int, Any]:
    """Total order over terms: constants first, then variables by name."""
    if isinstance(term, Constant):
        return (0, _sort_key(term.value))
    return (1, term.name)


def is_constant(term: Term) -> bool:
    """True when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_variable(term: Term) -> bool:
    """True when *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def as_term(value: Any) -> Term:
    """Coerce *value* to a term.

    Existing terms pass through unchanged; any other value is wrapped in a
    :class:`Constant`. Strings are **not** auto-interpreted as variables —
    use :class:`Variable` (or the parser in :mod:`repro.queries.parser`,
    where lowercase identifiers denote variables) when a variable is meant.
    """
    if isinstance(value, (Constant, Variable)):
        return value
    return Constant(value)


def constants_in(terms) -> set:
    """The set of constants occurring in an iterable of terms."""
    return {t for t in terms if isinstance(t, Constant)}


def variables_in(terms) -> set:
    """The set of variables occurring in an iterable of terms."""
    return {t for t in terms if isinstance(t, Variable)}


class FreshVariableFactory:
    """Generates variables guaranteed fresh with respect to a seen set.

    Used when standardizing queries apart and when building the cardinality
    tableaux V^U(S_i) of Section 4, which need rows of fresh variables
    x^i_{s,1} ... x^i_{s,l}.
    """

    __slots__ = ("_prefix", "_counter", "_taken")

    def __init__(self, taken=(), prefix: str = "_v"):
        self._prefix = prefix
        self._counter = 0
        self._taken = {v.name for v in taken}

    def reserve(self, variables) -> None:
        """Mark additional variable names as taken."""
        self._taken.update(v.name for v in variables)

    def fresh(self) -> Variable:
        """Return a variable whose name has never been seen or produced."""
        while True:
            self._counter += 1
            name = f"{self._prefix}{self._counter}"
            if name not in self._taken:
                self._taken.add(name)
                return Variable(name)


class FreshConstantFactory:
    """Generates constants outside every value seen so far.

    Freezing a tableau (Section 4) replaces each variable with a distinct
    fresh constant; these constants must not collide with ``dom`` values
    already present in view extensions.
    """

    __slots__ = ("_prefix", "_counter", "_taken")

    def __init__(self, taken=(), prefix: str = "_c"):
        self._prefix = prefix
        self._counter = 0
        self._taken = {c.value for c in taken if isinstance(c, Constant)}

    def fresh(self) -> Constant:
        """Return a constant whose value has never been seen or produced."""
        while True:
            self._counter += 1
            value = f"{self._prefix}{self._counter}"
            if value not in self._taken:
                self._taken.add(value)
                return Constant(value)
