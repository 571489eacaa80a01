"""Relational-algebra abstract syntax (Definition 5.1's query language).

The confidence calculus of Section 5.2 is defined by structural induction on
relational queries built from relation names with projection π, selection σ,
and cross product ×. We add union and rename as standard conveniences (union
distributes through the calculus via ⊕ as well; see
:mod:`repro.confidence.query_conf`).

Rows are positional tuples of :class:`~repro.model.terms.Constant`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.model.database import GlobalDatabase
from repro.model.terms import Constant, as_term
from repro.algebra.conditions import ALWAYS, Condition

Row = Tuple[Constant, ...]


class AlgebraQuery:
    """Base class for algebra nodes. Subclasses implement ``evaluate_boxed``."""

    def evaluate(self, database: GlobalDatabase) -> FrozenSet[Row]:
        """The set of rows the query produces over *database*.

        Compiles the tree through :mod:`repro.plan` (cached per canonical
        form, executed over interned scans and hash-join indexes). A tree
        outside the compiled vocabulary — e.g. a subclass this module does
        not know about — raises :class:`~repro.plan.ir.PlanError` naming
        the tree; nothing falls back. The structural interpreter remains
        the differential oracle as :meth:`evaluate_boxed`.
        """
        from repro.plan.executor import evaluate_rows
        from repro.plan.ir import PlanError

        try:
            return evaluate_rows(self, database)
        except PlanError as exc:
            raise PlanError(f"cannot plan {self!r}: {exc}") from exc

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        """Structural (uncompiled) evaluation over boxed rows.

        Unknown subclasses that predate the plan pipeline may override
        ``evaluate`` directly; delegate to it in that case.
        """
        if type(self).evaluate is AlgebraQuery.evaluate:
            raise NotImplementedError
        return self.evaluate(database)

    def width(self) -> int:
        """Number of columns the query produces (-1 when data-dependent)."""
        raise NotImplementedError

    def relations(self) -> Set[str]:
        """Global relation names read by the query."""
        raise NotImplementedError

    # -- fluent construction helpers -----------------------------------------

    def select(self, condition: Condition) -> "Selection":
        return Selection(condition, self)

    def project(self, columns: Sequence[int]) -> "Projection":
        return Projection(columns, self)

    def product(self, other: "AlgebraQuery") -> "Product":
        return Product(self, other)

    def union(self, other: "AlgebraQuery") -> "UnionNode":
        return UnionNode(self, other)

    def __mul__(self, other: "AlgebraQuery") -> "Product":
        return Product(self, other)

    def __or__(self, other: "AlgebraQuery") -> "UnionNode":
        return UnionNode(self, other)


class RelationScan(AlgebraQuery):
    """Leaf: read a global relation's extension as rows.

    The paper's base case ``Q = R``.
    """

    __slots__ = ("relation", "arity")

    def __init__(self, relation: str, arity: int):
        if arity < 0:
            raise QueryError(f"arity must be non-negative: {arity}")
        self.relation = relation
        self.arity = arity

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        return frozenset(
            f.args for f in database.extension(self.relation) if f.arity == self.arity
        )

    def width(self) -> int:
        return self.arity

    def relations(self) -> Set[str]:
        return {self.relation}

    def __repr__(self) -> str:
        return f"RelationScan({self.relation!r}, {self.arity})"


class Selection(AlgebraQuery):
    """``σ_φ Q'``: keep rows satisfying the condition."""

    __slots__ = ("condition", "child")

    def __init__(self, condition: Condition, child: AlgebraQuery):
        self.condition = condition if condition is not None else ALWAYS
        self.child = child

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        return frozenset(
            row for row in self.child.evaluate_boxed(database) if self.condition(row)
        )

    def width(self) -> int:
        return self.child.width()

    def relations(self) -> Set[str]:
        return self.child.relations()

    def __repr__(self) -> str:
        return f"Selection({self.condition!r}, {self.child!r})"


class Projection(AlgebraQuery):
    """``π_Att Q'``: reorder/drop columns by position (duplicates allowed).

    A column spec may also be a :class:`~repro.model.terms.Constant` (or any
    plain value, coerced to one), which emits that literal in every output
    row — needed to translate views with constants in the head, such as the
    motivating example's ``V3(438432, y, m, v)``.
    """

    __slots__ = ("columns", "child")

    def __init__(self, columns: Sequence, child: AlgebraQuery):
        specs = []
        child_width = child.width()
        for c in columns:
            if isinstance(c, int) and not isinstance(c, bool):
                if child_width >= 0 and not 0 <= c < child_width:
                    raise QueryError(
                        f"projection column {c} out of range for width {child_width}"
                    )
                specs.append(c)
            else:
                specs.append(as_term(c))
        self.columns = tuple(specs)
        self.child = child

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        return frozenset(
            tuple(row[c] if isinstance(c, int) else c for c in self.columns)
            for row in self.child.evaluate_boxed(database)
        )

    def width(self) -> int:
        return len(self.columns)

    def relations(self) -> Set[str]:
        return self.child.relations()

    def __repr__(self) -> str:
        return f"Projection({list(self.columns)!r}, {self.child!r})"


class Product(AlgebraQuery):
    """``Q' × Q''``: cross product; rows concatenate positionally."""

    __slots__ = ("left", "right")

    def __init__(self, left: AlgebraQuery, right: AlgebraQuery):
        self.left = left
        self.right = right

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        left_rows = self.left.evaluate_boxed(database)
        right_rows = self.right.evaluate_boxed(database)
        return frozenset(l + r for l in left_rows for r in right_rows)

    def width(self) -> int:
        lw, rw = self.left.width(), self.right.width()
        return lw + rw if lw >= 0 and rw >= 0 else -1

    def relations(self) -> Set[str]:
        return self.left.relations() | self.right.relations()

    def __repr__(self) -> str:
        return f"Product({self.left!r}, {self.right!r})"


class UnionNode(AlgebraQuery):
    """``Q' ∪ Q''``: set union of two queries of equal width."""

    __slots__ = ("left", "right")

    def __init__(self, left: AlgebraQuery, right: AlgebraQuery):
        lw, rw = left.width(), right.width()
        if lw >= 0 and rw >= 0 and lw != rw:
            raise QueryError(f"union of incompatible widths {lw} and {rw}")
        self.left = left
        self.right = right

    def evaluate_boxed(self, database: GlobalDatabase) -> FrozenSet[Row]:
        return self.left.evaluate_boxed(database) | self.right.evaluate_boxed(database)

    def width(self) -> int:
        lw = self.left.width()
        return lw if lw >= 0 else self.right.width()

    def relations(self) -> Set[str]:
        return self.left.relations() | self.right.relations()

    def __repr__(self) -> str:
        return f"UnionNode({self.left!r}, {self.right!r})"


def join(left: AlgebraQuery, right: AlgebraQuery, pairs: Iterable[Tuple[int, int]]) -> AlgebraQuery:
    """Equi-join derived from product + selection: ``σ_{l=r+|L|}(L × R)``.

    *pairs* are ``(left_column, right_column)`` equalities. The result keeps
    all columns of both operands (no projection), matching the classical
    derivation of ⋈ from primitive operators.
    """
    from repro.algebra.conditions import And, Col, Comparison

    lw = left.width()
    if lw < 0:
        raise QueryError("join requires a left operand of known width")
    conds = [Comparison(Col(l), "=", Col(lw + r)) for l, r in pairs]
    if not conds:
        return Product(left, right)
    condition = conds[0] if len(conds) == 1 else And(*conds)
    return Selection(condition, Product(left, right))


def rows_to_facts(rows: Iterable[Row], relation: str):
    """View algebra output rows as facts over *relation* (e.g. ``ans``)."""
    from repro.model.atoms import Atom

    return frozenset(Atom(relation, row) for row in rows)
