"""Source descriptors ⟨φ, v, c, s⟩ (Section 2.3).

A data source is described by a view definition φ (its *intended* content),
a view extension v (its *actual* content), and lower bounds c, s ∈ [0, 1] on
its completeness and soundness. Bounds are stored as exact
:class:`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from numbers import Rational, Real
from typing import FrozenSet, Iterable, Union

from repro.exceptions import ArityError, BoundError, SourceError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.queries.conjunctive import ConjunctiveQuery
from repro.sources import measures

BoundLike = Union[int, float, str, Fraction]


def as_bound(value: BoundLike) -> Fraction:
    """Coerce *value* to an exact Fraction in [0, 1].

    Accepts ints, Fractions, strings like ``"1/3"`` or ``"0.5"``, and floats.
    Floats are converted via ``Fraction(str(value))`` so that the human
    intent of ``0.1`` is one-tenth, not the binary double nearest to it.
    """
    if isinstance(value, Fraction):
        bound = value
    elif isinstance(value, bool):
        raise BoundError(f"bound must be a number in [0, 1], got {value!r}")
    elif isinstance(value, int):
        bound = Fraction(value)
    elif isinstance(value, float):
        bound = Fraction(str(value))
    elif isinstance(value, str):
        try:
            bound = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BoundError(f"cannot parse bound {value!r}") from exc
    elif isinstance(value, Rational):
        bound = Fraction(value.numerator, value.denominator)
    else:
        raise BoundError(f"bound must be a number in [0, 1], got {value!r}")
    if not 0 <= bound <= 1:
        raise BoundError(f"bound outside [0, 1]: {bound}")
    return bound


class SourceDescriptor:
    """⟨φ, v, c, s⟩: view definition, extension, completeness and soundness bounds.

    >>> from repro.queries import identity_view
    >>> from repro.model import fact
    >>> s1 = SourceDescriptor(identity_view("V1", "R", 1),
    ...                       [fact("V1", "a"), fact("V1", "b")], 0.5, 0.5)
    >>> s1.min_sound_count()
    1
    """

    __slots__ = ("view", "extension", "completeness_bound", "soundness_bound", "name")

    def __init__(
        self,
        view: ConjunctiveQuery,
        extension: Iterable[Atom],
        completeness_bound: BoundLike,
        soundness_bound: BoundLike,
        name: str = None,
    ):
        self.view = view
        self.extension: FrozenSet[Atom] = frozenset(extension)
        self.completeness_bound = as_bound(completeness_bound)
        self.soundness_bound = as_bound(soundness_bound)
        self.name = name if name is not None else view.head_relation()
        self._validate()

    def _validate(self) -> None:
        head = self.view.head
        for f in self.extension:
            if not f.is_ground():
                raise SourceError(f"view extension must contain facts, got {f}")
            if f.relation != head.relation:
                raise SourceError(
                    f"extension fact {f} is not over the view's local relation "
                    f"{head.relation}"
                )
            if f.arity != head.arity:
                raise ArityError(
                    f"extension fact {f} has arity {f.arity}, view head has "
                    f"{head.arity}"
                )

    # -- derived quantities ---------------------------------------------------

    def size(self) -> int:
        """``k_i = |v_i]``: the extension's cardinality."""
        return len(self.extension)

    def min_sound_count(self) -> int:
        """``⌈s_i · |v_i|⌉``: the least number of extension facts that must be
        correct in any possible database (inequality (3) of Section 4)."""
        return ceil(self.soundness_bound * self.size())

    def max_intended_size(self, sound_count: int) -> int:
        """``m_i = ⌊t_i / c_i⌋``: the largest |φ_i(D)| allowed when
        *sound_count* extension facts are correct (inequality (4)).

        With ``c_i = 0`` the completeness constraint is vacuous; we signal
        that with ``None`` (no bound).
        """
        if self.completeness_bound == 0:
            return None
        return int(Fraction(sound_count) / self.completeness_bound)

    # -- measures against a concrete database ----------------------------------

    def intended_content(self, database: GlobalDatabase) -> FrozenSet[Atom]:
        """``φ(D)``: what the source *should* contain for database D."""
        return self.view.apply(database)

    def completeness(self, database: GlobalDatabase) -> Fraction:
        """``c_D(S)`` (Definition 2.1)."""
        return measures.completeness(self.view, self.extension, database)

    def soundness(self, database: GlobalDatabase) -> Fraction:
        """``s_D(S)`` (Definition 2.2)."""
        return measures.soundness(self.view, self.extension, database)

    def satisfied_by(self, database: GlobalDatabase) -> bool:
        """Does *database* honour both declared bounds? (Section 3's constraint)

        Evaluates ``φ(D)`` once for both measures.
        """
        intended = self.view.apply(database)
        return (
            measures.completeness_of_extension(self.extension, intended)
            >= self.completeness_bound
            and measures.soundness_of_extension(self.extension, intended)
            >= self.soundness_bound
        )

    def is_identity(self) -> bool:
        """True when the view is an identity view (Corollary 3.4 setting)."""
        return self.view.is_identity()

    # -- misc -----------------------------------------------------------------

    def with_bounds(
        self, completeness_bound: BoundLike = None, soundness_bound: BoundLike = None
    ) -> "SourceDescriptor":
        """A copy with one or both bounds replaced."""
        return SourceDescriptor(
            self.view,
            self.extension,
            completeness_bound if completeness_bound is not None else self.completeness_bound,
            soundness_bound if soundness_bound is not None else self.soundness_bound,
            self.name,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceDescriptor)
            and self.view == other.view
            and self.extension == other.extension
            and self.completeness_bound == other.completeness_bound
            and self.soundness_bound == other.soundness_bound
        )

    def __hash__(self) -> int:
        return hash(
            (self.view, self.extension, self.completeness_bound, self.soundness_bound)
        )

    def __repr__(self) -> str:
        return (
            f"SourceDescriptor({self.name!r}, |v|={self.size()}, "
            f"c>={self.completeness_bound}, s>={self.soundness_bound})"
        )
