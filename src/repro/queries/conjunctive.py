"""Conjunctive queries and view definitions (Sections 2.1, 5).

A conjunctive query is ``head(Q) ← body(Q)`` where the head is an atom over a
local relation name (or the reserved ``ans``) and the body is a sequence of
atoms over global relation names and built-ins. All queries are *safe*: every
head variable occurs in some non-builtin body atom.

A *view definition* φ is a conjunctive query describing the intended content
of a data source; ``φ(D)`` applies it to a global database.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set, Tuple

from repro.exceptions import UnsafeQueryError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.model.schema import GlobalSchema, schema_of_atoms
from repro.model.terms import Constant, FreshVariableFactory, Variable
from repro.model.valuation import Substitution
from repro.queries.builtins import EMPTY_REGISTRY, BuiltinRegistry

ANSWER_RELATION = "ans"


class ConjunctiveQuery:
    """An immutable conjunctive query ``head ← b_1, ..., b_n``.

    >>> from repro.model import atom, Variable
    >>> x = Variable("x")
    >>> q = ConjunctiveQuery(atom("V", x), [atom("R", x)])
    >>> str(q)
    'V(x) <- R(x)'
    """

    __slots__ = ("head", "body", "builtins", "_hash", "_plan_shape")

    def __init__(
        self,
        head: Atom,
        body: Iterable[Atom],
        builtins: BuiltinRegistry = EMPTY_REGISTRY,
    ):
        self.head = head
        self.body: Tuple[Atom, ...] = tuple(body)
        self.builtins = builtins
        self._check_safety()
        self._hash = hash((self.head, self.body))
        # The plan cache's key and parameter values, rendered on the first
        # plan lookup (repro.plan.compiler); never pickled.
        self._plan_shape = None

    def _check_safety(self) -> None:
        bound = set()
        for b in self.relational_body():
            bound |= b.variables()
        unsafe = self.head.variables() - bound
        if unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise UnsafeQueryError(
                f"head variables not bound by a relational body atom: {names}"
            )
        for b in self.builtin_body():
            dangling = b.variables() - bound
            if dangling:
                names = ", ".join(sorted(v.name for v in dangling))
                raise UnsafeQueryError(
                    f"builtin atom {b} uses variables never bound: {names}"
                )

    # -- structure ------------------------------------------------------------

    def relational_body(self) -> Tuple[Atom, ...]:
        """Body atoms over stored (non-builtin) relations."""
        return tuple(b for b in self.body if not self.builtins.is_builtin(b.relation))

    def builtin_body(self) -> Tuple[Atom, ...]:
        """Body atoms over built-in relations."""
        return tuple(b for b in self.body if self.builtins.is_builtin(b.relation))

    def variables(self) -> Set[Variable]:
        """All variables of the query."""
        out = set(self.head.variables())
        for b in self.body:
            out |= b.variables()
        return out

    def constants(self) -> Set[Constant]:
        """All constants of the query."""
        out = set(self.head.constants())
        for b in self.body:
            out |= b.constants()
        return out

    def head_relation(self) -> str:
        """The local relation name of the head."""
        return self.head.relation

    def body_size(self) -> int:
        """``|body(φ)|``: number of body atoms (Lemma 3.1's bound uses it)."""
        return len(self.body)

    def body_schema(self) -> GlobalSchema:
        """Schema of the relational body atoms."""
        return schema_of_atoms(self.relational_body())

    def is_identity(self) -> bool:
        """True for identity views ``V(x̄) ← R(x̄)`` (Corollary 3.4 / §5.1).

        The single body atom must carry exactly the head's variable tuple,
        with pairwise-distinct variables.
        """
        if len(self.body) != 1:
            return False
        body_atom = self.body[0]
        if self.builtins.is_builtin(body_atom.relation):
            return False
        if body_atom.args != self.head.args:
            return False
        args = self.head.args
        return (
            all(isinstance(a, Variable) for a in args)
            and len(set(args)) == len(args)
        )

    # -- application -----------------------------------------------------------

    def substitute(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to head and body (head may become partial)."""
        return ConjunctiveQuery(
            substitution.apply(self.head),
            substitution.apply_all(self.body),
            self.builtins,
        )

    def standardized_apart(self, taken: Iterable[Variable]) -> "ConjunctiveQuery":
        """Rename the query's variables away from *taken*."""
        factory = FreshVariableFactory(taken=set(taken) | self.variables())
        renaming = Substitution({v: factory.fresh() for v in self.variables()})
        return self.substitute(renaming)

    def apply(self, database: GlobalDatabase) -> FrozenSet[Atom]:
        """``φ(D)``: the set of head facts derived from *database*."""
        from repro.queries.evaluation import evaluate

        return evaluate(self, database)

    __call__ = apply

    # -- identity/equality -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from its parts, so the hash and the plan key are the
        # loading process's.
        return (ConjunctiveQuery, (self.head, self.body, self.builtins))

    def __str__(self) -> str:
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} <- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self.head!r}, {list(self.body)!r})"


def identity_view(
    view_name: str, relation: str, arity: int, builtins: BuiltinRegistry = EMPTY_REGISTRY
) -> ConjunctiveQuery:
    """The identity view ``V(x_1..x_k) ← R(x_1..x_k)`` (paper's ``Id_R``)."""
    args = tuple(Variable(f"x{i}") for i in range(1, arity + 1))
    return ConjunctiveQuery(Atom(view_name, args), [Atom(relation, args)], builtins)


def answer_query(
    body: Iterable[Atom],
    head_args: Iterable = (),
    builtins: BuiltinRegistry = EMPTY_REGISTRY,
) -> ConjunctiveQuery:
    """A query whose head uses the reserved ``ans`` relation (Section 5)."""
    return ConjunctiveQuery(Atom(ANSWER_RELATION, tuple(head_args)), body, builtins)
