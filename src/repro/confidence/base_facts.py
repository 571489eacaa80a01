"""Confidence of base facts (Section 5.1).

``confidence(t) = Pr(t ∈ D | D ∈ poss(S))`` — computed exactly:

* identity-view collections: polynomial signature-block counting
  (:class:`~repro.confidence.blocks.BlockCounter`);
* arbitrary views over a small finite domain: direct possible-world
  enumeration.

Results are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional

from repro.exceptions import InconsistentCollectionError
from repro.model.atoms import Atom
from repro.sources.collection import SourceCollection
from repro.confidence.blocks import BlockCounter, IdentityInstance
from repro.confidence.worlds import fact_space, possible_worlds


def fact_confidence(
    collection: SourceCollection, domain: Iterable, fact: Atom
) -> Fraction:
    """Exact confidence of one fact, choosing the best available method."""
    if collection.identity_relation() is not None:
        counter = BlockCounter(IdentityInstance(collection, domain))
        return counter.confidence(fact)
    return enumeration_confidences(collection, domain, [fact])[fact]


def covered_fact_confidences(
    collection: SourceCollection, domain: Iterable
) -> Dict[Atom, Fraction]:
    """Confidences of every fact claimed by at least one source.

    Identity-view collections only (the polynomial case). Facts are returned
    as *global* facts, keyed in sorted order. Anonymous facts (outside all
    extensions) all share one confidence — query it with
    :func:`anonymous_fact_confidence`.
    """
    instance = IdentityInstance(collection, domain)
    return {
        f: confidence
        for j, confidence in BlockCounter(instance).block_confidences().items()
        for f in instance.blocks[j].facts
    }


def anonymous_fact_confidence(
    collection: SourceCollection, domain: Iterable
) -> Optional[Fraction]:
    """The shared confidence of facts outside every extension.

    ``None`` when the domain adds no anonymous facts at all.
    """
    instance = IdentityInstance(collection, domain)
    if instance.anonymous_size == 0:
        return None
    counter = BlockCounter(instance)
    denominator = counter.count_worlds()
    if denominator == 0:
        raise InconsistentCollectionError(
            "collection admits no possible database over this domain"
        )
    # Any anonymous fact will do; build one by probing the fact space lazily.
    from itertools import product as iter_product

    covered = {f for block in instance.blocks for f in block.facts}
    for combo in iter_product(instance.domain, repeat=instance.arity):
        candidate = Atom(instance.relation, combo)
        if candidate not in covered:
            return Fraction(
                counter.count_worlds_containing(candidate), denominator
            )
    return None


def enumeration_confidences(
    collection: SourceCollection, domain: Iterable, facts: Iterable[Atom] = None
) -> Dict[Atom, Fraction]:
    """Confidences by brute-force world enumeration (any view shapes).

    *facts* defaults to the whole finite fact space. Exponential; guarded by
    the enumeration cap in :mod:`repro.confidence.worlds`.
    """
    wanted = list(facts) if facts is not None else fact_space(collection, domain)
    counts = {f: 0 for f in wanted}
    total = 0
    for world in possible_worlds(collection, domain):
        total += 1
        for f in wanted:
            if f in world:
                counts[f] += 1
    if total == 0:
        raise InconsistentCollectionError(
            "collection admits no possible database over this domain"
        )
    return {f: Fraction(c, total) for f, c in counts.items()}


def certain_facts(
    confidences: Dict[Atom, Fraction]
) -> frozenset:
    """Facts with confidence exactly 1 (in every possible world)."""
    return frozenset(f for f, c in confidences.items() if c == 1)


def plausible_facts(
    confidences: Dict[Atom, Fraction], threshold: Fraction = Fraction(0)
) -> frozenset:
    """Facts with confidence strictly above *threshold*."""
    return frozenset(f for f, c in confidences.items() if c > threshold)
