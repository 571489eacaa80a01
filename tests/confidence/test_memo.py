"""Canonical memo keys (alpha-equivalence) and LRU cache behaviour."""

from fractions import Fraction

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.confidence import IdentityInstance
from repro.confidence.engine import LRUMemo, canonical_key, kernel
from repro.confidence.engine.kernel import ReducedProblem


def key_of(problem):
    """The canonical key alone (without its block order)."""
    return canonical_key(problem)[0]


def problem(signatures, sizes, min_sound, completeness, anonymous,
            seed_sound=None, seed_total=0):
    n = len(min_sound)
    return ReducedProblem(
        signatures=tuple(tuple(sig) for sig in signatures),
        sizes=tuple(sizes),
        min_sound=tuple(min_sound),
        completeness=tuple(completeness),
        anonymous_size=anonymous,
        seed_sound=tuple(seed_sound) if seed_sound else (0,) * n,
        seed_total=seed_total,
    )


BASE = problem(
    signatures=[(0,), (0, 1), (1,)],
    sizes=[1, 1, 1],
    min_sound=[1, 1],
    completeness=[Fraction(1, 2), Fraction(1, 3)],
    anonymous=4,
)


def permute_sources(p: ReducedProblem, perm) -> ReducedProblem:
    """Relabel source i as perm[i], keeping block order."""
    inverse = {new: old for old, new in enumerate(perm)}
    return ReducedProblem(
        signatures=tuple(
            tuple(sorted(perm[i] for i in sig)) for sig in p.signatures
        ),
        sizes=p.sizes,
        min_sound=tuple(p.min_sound[inverse[i]] for i in range(len(perm))),
        completeness=tuple(
            p.completeness[inverse[i]] for i in range(len(perm))
        ),
        anonymous_size=p.anonymous_size,
        seed_sound=tuple(p.seed_sound[inverse[i]] for i in range(len(perm))),
        seed_total=p.seed_total,
    )


def test_key_invariant_under_source_permutation():
    swapped = permute_sources(BASE, (1, 0))
    assert key_of(BASE) == key_of(swapped)
    # Sanity: the two renderings really describe the same count.
    assert kernel.solve(BASE)[0] == kernel.solve(swapped)[0]


def test_key_invariant_under_block_reordering():
    reordered = ReducedProblem(
        signatures=(BASE.signatures[2], BASE.signatures[0], BASE.signatures[1]),
        sizes=(BASE.sizes[2], BASE.sizes[0], BASE.sizes[1]),
        min_sound=BASE.min_sound,
        completeness=BASE.completeness,
        anonymous_size=BASE.anonymous_size,
        seed_sound=BASE.seed_sound,
        seed_total=BASE.seed_total,
    )
    assert key_of(BASE) == key_of(reordered)


def test_key_invariant_under_symmetric_tie():
    # Both sources have identical profiles: only the exact permutation
    # tie-break can collapse the two renderings.
    symmetric = problem(
        signatures=[(0,), (1,)],
        sizes=[2, 2],
        min_sound=[1, 1],
        completeness=[Fraction(1, 2), Fraction(1, 2)],
        anonymous=3,
    )
    swapped = permute_sources(symmetric, (1, 0))
    assert key_of(symmetric) == key_of(swapped)


def test_fact_renaming_collides_via_instances():
    def collection(values):
        return SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1),
                    [fact("V1", v) for v in values[:2]],
                    "1/2", "1/2", name="S1",
                ),
                SourceDescriptor(
                    identity_view("V2", "R", 1),
                    [fact("V2", v) for v in values[1:3]],
                    "1/2", "1/2", name="S2",
                ),
            ]
        )

    spec_1 = kernel.spec_of(
        IdentityInstance(collection(["a", "b", "c"]), ["a", "b", "c", "d"])
    )
    spec_2 = kernel.spec_of(
        IdentityInstance(collection(["p", "q", "r"]), ["p", "q", "r", "s"])
    )
    assert key_of(kernel.reduce_spec(spec_1)) == key_of(
        kernel.reduce_spec(spec_2)
    )


def test_distinct_bounds_get_distinct_keys():
    tighter = BASE._replace(completeness=(Fraction(1, 2), Fraction(1, 2)))
    assert key_of(BASE) != key_of(tighter)
    stronger = BASE._replace(min_sound=(2, 1))
    assert key_of(BASE) != key_of(stronger)
    seeded = BASE._replace(seed_sound=(1, 0), seed_total=1)
    assert key_of(BASE) != key_of(seeded)
    bigger_anonymous = BASE._replace(anonymous_size=5)
    assert key_of(BASE) != key_of(bigger_anonymous)


def test_lru_counters_and_eviction():
    memo = LRUMemo(2)
    hit, _ = memo.lookup("k1")
    assert not hit
    memo.store("k1", 10)
    memo.store("k2", 20)
    hit, value = memo.lookup("k1")
    assert hit and value == 10
    memo.store("k3", 30)  # k2 is now least recent -> evicted
    assert "k2" not in memo
    assert "k1" in memo and "k3" in memo
    stats = memo.stats()
    assert stats.hits == 1
    assert stats.misses == 1  # only lookup() counts; __contains__ does not
    assert stats.evictions == 1
    assert stats.size == 2
    assert 0 < stats.hit_rate < 1
    memo.clear()
    assert len(memo) == 0


def test_lru_store_is_idempotent_for_size():
    memo = LRUMemo(2)
    memo.store("k", 1)
    memo.store("k", 1)
    assert len(memo) == 1
    assert memo.stats().evictions == 0
