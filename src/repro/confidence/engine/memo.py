"""LRU memoization of counting problems, keyed by canonical block signatures.

Two counting questions that are *alpha-equivalent* — identical up to renaming
facts and permuting sources — have identical world counts, so they must hit
the same cache line. :func:`canonical_key` achieves this by canonicalizing a
:class:`~repro.confidence.engine.kernel.ReducedProblem`:

* fact names never enter the key (a reduced problem only carries block
  *sizes*), so fact renaming is quotiented out for free;
* source permutations are quotiented out by re-labelling sources in a
  canonical order: sources are first sorted by an invariant *profile*
  (soundness floor, completeness bound, seeded sound count, and the multiset
  of shapes of the blocks they appear in); any sources left tied by the
  profile are disambiguated by trying every permutation of the tied group
  and keeping the lexicographically least rendering. Tied groups are almost
  always singletons, so the exact search is cheap; a safety valve caps the
  number of candidate orders and falls back to the (still deterministic,
  merely less collision-happy) profile order.

The rendering also fixes an order of the problem's blocks (the canonical
block order), which :func:`canonical_key` returns beside the key. A
``confidences()`` call stores the world count and one numerator per block
in that order under ``(CONFIDENCES, key)``, one line per instance, so an
alpha-equivalent instance reads the numerators back through its own block
order. Count-only questions store one world count under the bare key;
the two namespaces never share a line.

The cache itself is an :class:`~repro.cache.runtime.LRUMemo` from the
unified cache runtime (``repro.cache``): thread-safe LRU with
hit/miss/eviction counters and byte accounting. The shared instance is
enrolled in the process-wide :class:`~repro.cache.runtime.CacheRegistry`
as ``"engine.memo"``, so it participates in the global byte budget. Keys
*are* the counting problems, so a line can never go stale: lines of a
superseded registry version are reclaimed by LRU and the budget.
``CacheStats``, ``LRUMemo``, and ``DEFAULT_CACHE_SIZE`` are re-exported
here for compatibility with pre-runtime imports.
"""

from __future__ import annotations

import sys
from itertools import islice, permutations, product
from typing import List, Optional, Sequence, Tuple

from repro.cache import cache_registry
from repro.cache.runtime import DEFAULT_CACHE_SIZE, CacheStats, LRUMemo
from repro.confidence.engine.kernel import ReducedProblem

__all__ = [
    "CONFIDENCES",
    "CacheStats",
    "DEFAULT_CACHE_SIZE",
    "LRUMemo",
    "MAX_CANONICAL_ORDERS",
    "canonical_key",
    "shared_memo",
]

#: Give up on exact tie-breaking beyond this many candidate source orders.
MAX_CANONICAL_ORDERS = 720

#: First element of a confidence line's key: ``(CONFIDENCES, key)``.
CONFIDENCES = "confidences"


def _memo_sizeof(key: object, value: object) -> int:
    """Price one memo line: a nested int tuple key plus its counts.

    Canonical keys are small tuples of ints. A count line's value is one
    world count (possibly a very large int); a confidence line's is the
    count and a tuple of block numerators. A flat structural estimate
    beats the generic sampler here because keys dominate and are uniform.
    """
    counts: Tuple = (value,)
    containers = 0
    try:
        if key[0] == CONFIDENCES:  # type: ignore[index]
            key = key[1]  # type: ignore[index]
            count, numerators = value  # type: ignore[misc]
            counts = (count, *numerators)
            containers = sys.getsizeof(value) + sys.getsizeof(numerators)
        per_source, blocks, _, _ = key  # type: ignore[misc]
        width = len(per_source) * 3 + len(blocks) * 4
    except (TypeError, ValueError, IndexError):
        width = 8
    return (
        120 + 48 * width + containers + sum(sys.getsizeof(c) for c in counts)
    )


_SHARED = cache_registry().enroll(
    LRUMemo(name="engine.memo", sizeof=_memo_sizeof)
)


def shared_memo() -> LRUMemo:
    """The process-wide default memo (shared across engine instances)."""
    return _SHARED


def _profiles(problem: ReducedProblem, completeness: Sequence) -> List[Tuple]:
    """A permutation-invariant profile per source (the sorting key).

    *completeness* supplies one sortable token per source — interned int IDs
    in :func:`canonical_key`, raw Fractions in the boxed key the tests keep
    as its oracle. Any fixed total order over the tokens yields a correct
    canonicalization; only equality of tokens (which both encodings
    preserve) affects which keys collide.
    """
    block_shapes: List[List[Tuple[int, int]]] = [
        [] for _ in range(problem.n_sources)
    ]
    for signature, size in zip(problem.signatures, problem.sizes):
        shape = (size, len(signature))
        for i in signature:
            block_shapes[i].append(shape)
    return [
        (
            problem.min_sound[i],
            completeness[i],
            problem.seed_sound[i],
            tuple(sorted(block_shapes[i])),
        )
        for i in range(problem.n_sources)
    ]


def _render(
    problem: ReducedProblem, completeness: Sequence, order: Sequence[int]
) -> Tuple[Tuple, Tuple[int, ...]]:
    """The key rendering under one source order (*order[new] = old*), and
    the problem's block indices in the order the rendering lists them.

    Signatures are distinct within a problem, so the block index never
    decides the sort: it only rides along to give the block order.
    """
    relabel = {old: new for new, old in enumerate(order)}
    per_source = tuple(
        (
            problem.min_sound[old],
            completeness[old],
            problem.seed_sound[old],
        )
        for old in order
    )
    ranked = sorted(
        (tuple(sorted(relabel[i] for i in signature)), size, j)
        for j, (signature, size) in enumerate(
            zip(problem.signatures, problem.sizes)
        )
    )
    key = (
        per_source,
        tuple((signature, size) for signature, size, _ in ranked),
        problem.anonymous_size,
        problem.seed_total,
    )
    return key, tuple(j for _, _, j in ranked)


def _canonicalize(
    problem: ReducedProblem, completeness: Sequence
) -> Tuple[Tuple, Tuple[int, ...]]:
    profiles = _profiles(problem, completeness)
    base_order = sorted(range(problem.n_sources), key=lambda i: profiles[i])

    # Group profile-tied sources; exact tie-break permutes within groups.
    groups: List[List[int]] = []
    for i in base_order:
        if groups and profiles[groups[-1][0]] == profiles[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    n_orders = 1
    for group in groups:
        for k in range(2, len(group) + 1):
            n_orders *= k
    if n_orders == 1:
        return _render(problem, completeness, base_order)
    candidates = product(*(permutations(group) for group in groups))
    best: Optional[Tuple[Tuple, Tuple[int, ...]]] = None
    for arrangement in islice(candidates, MAX_CANONICAL_ORDERS):
        order = [i for group in arrangement for i in group]
        rendering = _render(problem, completeness, order)
        if best is None or rendering[0] < best[0]:
            best = rendering
    return best


def canonical_key(problem: ReducedProblem) -> Tuple[Tuple, Tuple[int, ...]]:
    """A hashable key identical across alpha-equivalent counting problems,
    and the problem's block indices in the key's block order.

    Every entry of the key is a plain int: completeness bounds are interned
    as constants in the process-wide symbol table (equal Fractions share an
    ID), so key comparison and hashing never touch Fraction arithmetic. The
    encoding is injective relative to the same key over the Fractions
    themselves — two problems get equal int keys iff they get equal
    Fraction keys (asserted property-based in
    ``tests/property/test_core_roundtrip.py`` against the boxed key in
    ``tests/oracles/``), so hit/miss behavior is identical.

    Two problems with equal keys are related by a source relabelling that
    maps the block at each position of one block order to the block at the
    same position of the other, so per-block counts stored in one problem's
    block order read back correctly through the other's. When several
    source orders give the least rendering, they differ by a symmetry of
    the problem, which maps blocks to blocks with equal counts.
    """
    from repro.core.symbols import global_table

    intern_constant = global_table().constant
    completeness = tuple(intern_constant(c) for c in problem.completeness)
    return _canonicalize(problem, completeness)

