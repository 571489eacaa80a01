"""Boxed reference implementations the production paths are tested against.

Each function here is the object-level algorithm a production path in
``src/`` replaced, kept unchanged so the tests can assert, differentially,
that the replacement computes exactly the same answers:

* :func:`evaluate_backtracking` — the backtracking join over boxed atoms,
  the oracle for the compiled plans of :mod:`repro.plan` (the naive
  cross product, :func:`repro.queries.evaluate_naive`, stays in ``src/``
  as the literal definition of φ(D));
* :func:`boxed_signature_decomposition` — the frozenset-probing block
  decomposition, the oracle for
  :class:`~repro.confidence.blocks.IdentityInstance`;
* :func:`check_consistency_boxed` with its :func:`quotient_valuations` —
  the freeze-then-quotient CONSISTENCY search over boxed candidate
  databases, the oracle for :mod:`repro.consistency.coresearch`;
* :func:`canonical_key_boxed` — the memo key with completeness bounds
  compared as Fractions, the oracle for
  :func:`repro.confidence.engine.memo.canonical_key`.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Sequence, Set, Tuple

from repro.confidence.engine.kernel import ReducedProblem
from repro.confidence.engine.memo import _canonicalize
from repro.consistency.checker import (
    DEFAULT_MAX_COMBINATIONS,
    DEFAULT_MAX_QUOTIENTS,
    _reject_builtins,
)
from repro.consistency.identity import check_identity
from repro.consistency.result import ConsistencyResult
from repro.exceptions import SourceError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.model.terms import Constant, FreshConstantFactory, Variable, as_term
from repro.model.valuation import Valuation
from repro.queries.conjunctive import ConjunctiveQuery
from repro.queries.evaluation import valuations
from repro.sources.collection import SourceCollection
from repro.tableaux.construction import allowable_combinations, template_for_combination
from repro.tableaux.tableau import Tableau


# -- conjunctive queries --------------------------------------------------------

def evaluate_backtracking(
    query: ConjunctiveQuery, database: GlobalDatabase
) -> FrozenSet[Atom]:
    """``Q(D)`` by backtracking join — the differential oracle for the plans."""
    out: Set[Atom] = set()
    for subst in valuations(query, database):
        head = subst.apply(query.head)
        if head.is_ground():
            out.add(head)
    return frozenset(out)


# -- signature-block decomposition ----------------------------------------------

class BoxedDecomposition(NamedTuple):
    """The signature-block decomposition, in boxed (object) form."""

    relation: str
    blocks: Tuple[Tuple[Tuple[int, ...], Tuple[Atom, ...]], ...]
    anonymous_size: int
    extensions: Tuple[FrozenSet[Atom], ...]


def boxed_signature_decomposition(collection, domain) -> BoxedDecomposition:
    """The pre-interning block decomposition of an identity collection.

    This is the original object-level algorithm: extensions are frozensets
    of renamed :class:`Atom` objects and membership signatures are computed
    by hashing each covered fact against each extension frozenset. The
    interned :class:`~repro.confidence.blocks.IdentityInstance` produces an
    identical decomposition (same block signatures, sizes and facts) via
    integer fact IDs and bitmask accumulation.
    """
    relation = collection.identity_relation()
    if relation is None:
        raise SourceError(
            "boxed_signature_decomposition requires identity views over one "
            "global relation"
        )
    arity = collection.sources[0].view.head.arity
    domain_terms = tuple(as_term(c) for c in dict.fromkeys(domain))
    domain_set = set(domain_terms)
    fact_space_size = len(domain_terms) ** arity

    extensions: List[FrozenSet[Atom]] = []
    for source in collection:
        global_ext = frozenset(
            Atom(relation, f.args) for f in source.extension
        )
        for f in global_ext:
            missing = [a for a in f.args if a not in domain_set]
            if missing:
                raise SourceError(
                    f"extension fact {f} uses constants outside the domain: "
                    f"{missing}"
                )
        extensions.append(global_ext)

    by_signature: Dict[FrozenSet[int], List[Atom]] = {}
    covered = frozenset().union(*extensions) if extensions else frozenset()
    for f in covered:
        signature = frozenset(
            i for i, ext in enumerate(extensions) if f in ext
        )
        by_signature.setdefault(signature, []).append(f)
    blocks = tuple(
        (tuple(sorted(sig)), tuple(sorted(facts)))
        for sig, facts in sorted(
            by_signature.items(), key=lambda kv: (sorted(kv[0]), len(kv[1]))
        )
    )
    covered_size = sum(len(facts) for _, facts in blocks)
    return BoxedDecomposition(
        relation=relation,
        blocks=blocks,
        anonymous_size=fact_space_size - covered_size,
        extensions=tuple(extensions),
    )


# -- CONSISTENCY ------------------------------------------------------------------

def quotient_valuations(
    variables: Sequence[Variable], constants: Sequence[Constant]
) -> Iterator[Valuation]:
    """All valuations of *variables* over *constants* plus fresh constants,
    canonical up to renaming of the fresh part.

    Fresh constants are introduced in restricted-growth order (a variable may
    map to fresh constant #j only if #0..#j−1 are already used), so each
    identification pattern is enumerated exactly once.
    """
    variables = sorted(variables)
    factory = FreshConstantFactory(taken=constants, prefix="_q")
    fresh_pool: List[Constant] = [factory.fresh() for _ in range(len(variables))]

    def extend(index: int, images: List[Constant], used_fresh: int) -> Iterator[Valuation]:
        if index == len(variables):
            yield Valuation(dict(zip(variables, images)))
            return
        for c in constants:
            yield from extend(index + 1, images + [c], used_fresh)
        for j in range(used_fresh + 1):
            if j < len(fresh_pool):
                yield from extend(
                    index + 1, images + [fresh_pool[j]], max(used_fresh, j + 1)
                )

    yield from extend(0, [], 0)


def check_consistency_boxed(
    collection: SourceCollection,
    max_quotients: int = DEFAULT_MAX_QUOTIENTS,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> ConsistencyResult:
    """The pre-interning object-level search.

    Semantically identical to :func:`repro.consistency.check_consistency`;
    every candidate database here is a frozenset of boxed atoms and every
    ``poss(S)`` test evaluates views over :class:`~repro.model.atoms.Atom`
    objects.
    """
    if not collection.sources:
        return ConsistencyResult(
            consistent=True, witness=GlobalDatabase(), method="empty-collection"
        )
    if collection.identity_relation() is not None:
        return check_identity(collection)
    _reject_builtins(collection)

    base_constants = sorted(collection.all_constants())
    combinations_tried = 0
    truncated = False

    # Pass 1: canonical freeze of every combination (cheap, often decisive).
    frozen_attempts: List[Tableau] = []
    for combination in allowable_combinations(collection):
        combinations_tried += 1
        if combinations_tried > max_combinations:
            truncated = True
            break
        template = template_for_combination(collection, combination)
        tableau = template.tableaux[0]
        frozen, _ = tableau.freeze(base_constants)
        witness = GlobalDatabase(frozen.atoms)
        if collection.admits(witness):
            return ConsistencyResult(
                consistent=True,
                witness=witness,
                method="canonical-freeze",
                combinations_tried=combinations_tried,
            )
        frozen_attempts.append(tableau)

    # Pass 2: complete quotient search over each combination's tableau.
    quotients_tried = 0
    for tableau in frozen_attempts:
        for valuation in quotient_valuations(
            sorted(tableau.variables()), base_constants
        ):
            quotients_tried += 1
            if quotients_tried > max_quotients:
                truncated = True
                break
            witness = GlobalDatabase(tableau.substitute(valuation).atoms)
            if collection.admits(witness):
                return ConsistencyResult(
                    consistent=True,
                    witness=witness,
                    method="quotient-search",
                    combinations_tried=combinations_tried,
                )
        if truncated:
            break

    return ConsistencyResult(
        consistent=False,
        decisive=not truncated,
        method="exhausted" if not truncated else "truncated",
        combinations_tried=combinations_tried,
    )


# -- memo keys --------------------------------------------------------------------

def canonical_key_boxed(problem: ReducedProblem) -> Tuple:
    """The pre-interning key (Fractions compared by value), the reference
    for the key-agreement property tests.
    """
    return _canonicalize(problem, problem.completeness)[0]
