"""Conjunctive-query evaluation over global databases.

:func:`evaluate` routes through the compiled plan pipeline
(:mod:`repro.plan`): queries compile once per alpha-equivalence class into
interned scans and hash joins, and per-database indexes are shared across
calls. :func:`valuations` is the backtracking join over boxed atoms, kept
for :func:`supporting_valuation`, which needs witness substitutions rather
than answer sets. :func:`evaluate_naive` is the cross product of the
definition of φ(D), the oracle the tests hold every evaluator to.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import BuiltinError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.model.terms import Variable, term_sort_key
from repro.model.valuation import Substitution, match_atom
from repro.queries.conjunctive import ConjunctiveQuery


def _bound_score(atom: Atom, bound: Set[Variable]) -> Tuple[int, int]:
    """Ordering key: prefer atoms with fewer unbound variables, then smaller."""
    unbound = sum(1 for v in atom.variables() if v not in bound)
    return (unbound, atom.arity)


def order_body(atoms: Sequence[Atom]) -> List[Atom]:
    """Greedy most-bound-first join order with a *stable total* tie-break.

    The greedy score (unbound variable count, then arity) routinely ties —
    and a tie broken by set iteration order made plans, visit counters, and
    cache contents vary across runs. Ties now fall through to the atom's
    relation name, its argument terms (:func:`term_sort_key` gives a total
    order over mixed constants/variables), and finally the original body
    position, so the chosen order is a pure function of the atom multiset.
    Shared by :func:`valuations` and the plan compiler's static order, so
    both join in the same order.
    """
    return [atoms[i] for i in order_positions(atoms)]


def order_positions(atoms: Sequence[Atom]) -> List[int]:
    """:func:`order_body`'s order as positions into *atoms*."""
    items = list(enumerate(atoms))
    bound: Set[Variable] = set()
    ordered: List[int] = []

    def key(item: Tuple[int, Atom]):
        index, atom = item
        unbound, arity = _bound_score(atom, bound)
        return (
            unbound,
            arity,
            atom.relation,
            tuple(term_sort_key(a) for a in atom.args),
            index,
        )

    while items:
        best = min(items, key=key)
        items.remove(best)
        ordered.append(best[0])
        bound |= best[1].variables()
    return ordered


def _order_body(query: ConjunctiveQuery) -> List[Atom]:
    """Greedy join order over relational atoms (builtins handled separately)."""
    return order_body(query.relational_body())


def valuations(
    query: ConjunctiveQuery, database: GlobalDatabase
) -> Iterator[Substitution]:
    """All substitutions over the body variables that embed the body in *database*.

    Built-in atoms are checked as soon as every one of their variables is
    bound; safety guarantees this happens before the end.
    """
    ordered = _order_body(query)
    builtins_pending = list(query.builtin_body())
    registry = query.builtins

    def check_ready_builtins(subst: Substitution, pending: List[Atom]) -> Optional[List[Atom]]:
        """Evaluate builtins whose variables are now all bound.

        Returns the still-pending list, or ``None`` if a builtin failed.
        """
        still = []
        for b in pending:
            grounded = subst.apply(b)
            if grounded.is_ground():
                if not registry.check_atom(grounded):
                    return None
            else:
                still.append(b)
        return still

    def extend(index: int, subst: Substitution, pending: List[Atom]) -> Iterator[Substitution]:
        if index == len(ordered):
            if pending:
                # Safety should prevent this; guard anyway.
                raise BuiltinError(
                    f"builtin atoms left unbound after full join: {pending}"
                )
            yield subst
            return
        atom = ordered[index]
        for candidate in database.extension(atom.relation):
            extended = match_atom(atom, candidate, subst)
            if extended is None:
                continue
            still = check_ready_builtins(extended, pending)
            if still is None:
                continue
            yield from extend(index + 1, extended, still)

    initial_pending = check_ready_builtins(Substitution(), builtins_pending)
    if initial_pending is None:
        return
    yield from extend(0, Substitution(), initial_pending)


def evaluate(query: ConjunctiveQuery, database: GlobalDatabase) -> FrozenSet[Atom]:
    """``Q(D)``: the set of ground head facts produced by the query.

    Routes through :mod:`repro.plan` — compiled once per alpha-equivalence
    class, executed over cached interned scans and hash-join indexes.
    Answer-identical to :func:`evaluate_naive` (property-tested in
    ``tests/property/test_plan_equivalence.py``).
    """
    from repro.plan import evaluate as _plan_evaluate

    return _plan_evaluate(query, database)


def evaluate_naive(query: ConjunctiveQuery, database: GlobalDatabase) -> FrozenSet[Atom]:
    """Cross-product evaluation; the differential-testing oracle.

    Enumerates every assignment of body atoms to database facts, checks
    consistency and builtins at the end. Exponential, only for tests.
    """
    relational = query.relational_body()
    registry = query.builtins
    out: Set[Atom] = set()
    candidate_lists: List[Sequence[Atom]] = [
        sorted(database.extension(b.relation)) for b in relational
    ]
    for combo in product(*candidate_lists):
        subst: Optional[Substitution] = Substitution()
        for pattern, ground in zip(relational, combo):
            subst = match_atom(pattern, ground, subst)
            if subst is None:
                break
        if subst is None:
            continue
        ok = True
        for b in query.builtin_body():
            grounded = subst.apply(b)
            if not grounded.is_ground() or not registry.check_atom(grounded):
                ok = False
                break
        if not ok:
            continue
        head = subst.apply(query.head)
        if head.is_ground():
            out.add(head)
    return frozenset(out)


def supporting_valuation(
    query: ConjunctiveQuery, database: GlobalDatabase, head_fact: Atom
) -> Optional[Substitution]:
    """A valuation θ with ``head(φ)θ == head_fact`` and ``body(φ)θ ⊆ D``.

    This is the witness-choosing step of Lemma 3.1's proof. Returns ``None``
    when *head_fact* is not derivable.
    """
    seed = match_atom(query.head, head_fact)
    if seed is None:
        return None
    grounded = query.substitute(seed)
    for body_subst in valuations(grounded, database):
        return seed.compose(body_subst)
    return None


def derives(query: ConjunctiveQuery, database: GlobalDatabase, head_fact: Atom) -> bool:
    """True when ``head_fact ∈ φ(D)``, without materializing all of φ(D)."""
    return supporting_valuation(query, database, head_fact) is not None
