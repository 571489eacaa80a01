"""The CONSISTENCY decision procedure for general view definitions (§3).

Strategy (exponential by necessity — Theorem 3.2 proves NP-completeness):

1. **Identity fast path** — when every view is an identity over one global
   relation, delegate to the signature-block dynamic program.
2. **Canonical freeze** — for each allowable sound-subset combination U
   (Theorem 4.1's 𝒰), build the tableau T^U(S), freeze its variables to
   distinct fresh constants, and test the resulting database against the
   poss(S) predicate. Any hit is a genuine witness.
3. **Quotient search** — when freezing misses, enumerate homomorphic images
   of T^U(S): valuations of its variables over the constant pool (extension
   and view constants plus canonically-ordered fresh constants). Lemma 3.1's
   proof shows a consistent collection always has a witness of this shape,
   so exhausting the quotients of every U is a *complete* decision
   procedure.

Views whose bodies mention built-in predicates are rejected here (freezing
cannot invent constants satisfying arithmetic constraints); decide those
over an explicit finite domain with
:func:`repro.confidence.worlds.is_consistent_over`.
"""

from __future__ import annotations

from repro.exceptions import SourceError
from repro.model.database import GlobalDatabase
from repro.sources.collection import SourceCollection
from repro.consistency.identity import check_identity
from repro.consistency.result import ConsistencyResult

#: Default cap on quotient valuations examined per combination.
DEFAULT_MAX_QUOTIENTS = 200_000
#: Default cap on allowable combinations examined.
DEFAULT_MAX_COMBINATIONS = 100_000


def _reject_builtins(collection: SourceCollection) -> None:
    for source in collection:
        if source.view.builtin_body():
            raise SourceError(
                f"view of source {source.name} uses built-ins; decide "
                "consistency over an explicit finite domain instead "
                "(repro.confidence.worlds.is_consistent_over)"
            )


def check_consistency(
    collection: SourceCollection,
    max_quotients: int = DEFAULT_MAX_QUOTIENTS,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> ConsistencyResult:
    """Decide whether ``poss(S) ≠ ∅``, producing a witness when consistent.

    A negative result with ``decisive=False`` means a resource cap was hit
    before the search space was exhausted; raise the caps to settle it.

    The generic search runs over the interned representation
    (:mod:`repro.consistency.coresearch`); it visits combinations and
    quotient valuations in the same order as the boxed search kept in
    ``tests/oracles/``, so verdicts, witnesses, counters and truncation
    points are identical.
    """
    if not collection.sources:
        return ConsistencyResult(
            consistent=True, witness=GlobalDatabase(), method="empty-collection"
        )
    if collection.identity_relation() is not None:
        return check_identity(collection)
    _reject_builtins(collection)

    from repro.consistency.coresearch import core_check_consistency

    return core_check_consistency(collection, max_quotients, max_combinations)


def is_consistent(collection: SourceCollection) -> bool:
    """Convenience wrapper; raises on an indecisive (truncated) negative."""
    result = check_consistency(collection)
    if not result.consistent and not result.decisive:
        raise SourceError(
            "consistency search truncated by resource caps; call "
            "check_consistency with higher limits"
        )
    return result.consistent
