"""Constraints (U, Θ) over a schema (Section 4).

A constraint is a tableau U plus a set Θ of substitutions. A database D
*satisfies* (U, Θ) when every valuation σ embedding U into D is compatible
with at least one θ ∈ Θ. The cardinality constraints C^U(S_i) of Section 4
are exactly of this shape: embedding m_i + 1 "rows" forces two rows to
coincide.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from repro.model.database import GlobalDatabase
from repro.model.valuation import Substitution, compatible
from repro.tableaux.tableau import Tableau


class Constraint:
    """``(U, Θ)``: tableau plus allowed substitutions.

    >>> from repro.model import atom, Variable, Constant
    >>> x = Variable("x")
    >>> c = Constraint(Tableau([atom("R", "a", x)]),
    ...                [Substitution({x: Constant("b")})])
    """

    __slots__ = ("tableau", "substitutions", "label")

    def __init__(
        self,
        tableau: Tableau,
        substitutions: Iterable[Substitution],
        label: str = "",
    ):
        self.tableau = tableau
        self.substitutions: Tuple[Substitution, ...] = tuple(substitutions)
        self.label = label

    def satisfied_by(self, database: GlobalDatabase) -> bool:
        """Every embedding of U into D is compatible with some θ ∈ Θ.

        The search abandons a partial embedding as soon as it is compatible
        with some θ. An embedding maps variables to constants and leaves an
        unbound variable as itself, which no constant equals, so a partial
        embedding compatible with θ already binds θ's variables; since
        :func:`compatible` reads only those, every completion stays
        compatible. What the search still yields is a violation. For a
        cardinality constraint C^U(S_i) — m+1 copies of the view body —
        only embeddings with pairwise-distinct rows are visited, not all
        |D|^(m+1). :meth:`violating_embeddings` keeps the exhaustive search
        as the literal definition.
        """

        def settled(partial: Substitution) -> bool:
            return any(compatible(partial, theta) for theta in self.substitutions)

        violations = self.tableau.embeddings(database, prune=settled)
        return next(violations, None) is None

    def violating_embeddings(self, database: GlobalDatabase) -> Iterator[Substitution]:
        """Embeddings incompatible with every θ (for diagnostics/tests)."""
        for valuation in self.tableau.embeddings(database):
            if not any(compatible(valuation, theta) for theta in self.substitutions):
                yield valuation

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constraint)
            and self.tableau == other.tableau
            and frozenset(self.substitutions) == frozenset(other.substitutions)
        )

    def __hash__(self) -> int:
        return hash((self.tableau, frozenset(self.substitutions)))

    def __repr__(self) -> str:
        name = f" {self.label}" if self.label else ""
        return (
            f"Constraint{name}(|U|={len(self.tableau)}, "
            f"|Theta|={len(self.substitutions)})"
        )
