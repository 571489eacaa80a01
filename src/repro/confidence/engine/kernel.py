"""The pure counting kernel: signature-block DP over plain data.

The engine's unit of work. A :class:`CountingSpec` is the block decomposition
of an :class:`~repro.confidence.blocks.IdentityInstance` stripped down to the
numbers the dynamic program actually consumes — block sizes, membership
signatures, per-source soundness floors and completeness bounds, and the
anonymous-block size. No model objects (atoms, views, collections) survive
into the spec, which buys three properties at once:

* **parallelism** — specs are tiny, picklable tuples, cheap to ship to
  worker processes;
* **memoization** — every counting question reduces (via :func:`reduce_spec`)
  to a canonical :class:`ReducedProblem`, the natural cache key domain;
* **single implementation** — :class:`~repro.confidence.blocks.BlockCounter`
  delegates here, so the serial API and the parallel engine run literally
  the same DP.

A *reduced problem* folds forced-in facts (numerator counts "worlds
containing t": shrink t's block, seed the sound counts) and forced-out facts
(complement counts: shrink the block, no seed) into the spec itself, so
distinct questions that induce the same arithmetic collide in the cache.

One sweep of the unforced problem also answers every single-fact numerator:
:func:`solve` tracks, per requested block, the number of its facts the
worlds contain, which is ``|B_j|`` times the count for forcing one of them
in. All confidences of an instance thus cost one sweep, not one per block.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

State = Tuple[Tuple[int, ...], int]
StateMap = Dict[State, int]


class CountingSpec(NamedTuple):
    """The block decomposition of an identity instance, as plain data."""

    signatures: Tuple[Tuple[int, ...], ...]  #: per block: sorted source indices
    sizes: Tuple[int, ...]                   #: per block: number of facts
    min_sound: Tuple[int, ...]               #: per source: ⌈s_i·k_i⌉ floor
    completeness: Tuple[Fraction, ...]       #: per source: bound c_i
    anonymous_size: int                      #: facts outside every extension

    @property
    def n_sources(self) -> int:
        return len(self.min_sound)

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)


class ReducedProblem(NamedTuple):
    """A counting question folded into spec form (see module docstring)."""

    signatures: Tuple[Tuple[int, ...], ...]
    sizes: Tuple[int, ...]                   #: effective (shrunk) block sizes
    min_sound: Tuple[int, ...]
    completeness: Tuple[Fraction, ...]
    anonymous_size: int                      #: effective anonymous size
    seed_sound: Tuple[int, ...]              #: sound counts of forced-in facts
    seed_total: int                          #: |forced-in facts|

    @property
    def n_sources(self) -> int:
        return len(self.min_sound)


def spec_of(instance) -> CountingSpec:
    """Extract the :class:`CountingSpec` of an ``IdentityInstance``.

    Duck-typed (reads ``blocks``, ``min_sound``, ``completeness_bounds``,
    ``anonymous_size``) to keep this module free of model imports.
    """
    return CountingSpec(
        signatures=tuple(
            tuple(sorted(block.signature)) for block in instance.blocks
        ),
        sizes=tuple(block.size for block in instance.blocks),
        min_sound=tuple(instance.min_sound),
        completeness=tuple(instance.completeness_bounds),
        anonymous_size=instance.anonymous_size,
    )


def reduce_spec(
    spec: CountingSpec,
    forced: Optional[Mapping[Optional[int], int]] = None,
    excluded: Optional[Mapping[Optional[int], int]] = None,
) -> Optional[ReducedProblem]:
    """Fold forced-in / forced-out facts into the spec.

    *forced* maps a block index (``None`` = anonymous block) to the number of
    its facts that must appear in the world; *excluded* to the number that
    must not. Returns ``None`` when the request is infeasible outright (more
    facts forced or excluded than a block holds).
    """
    forced = dict(forced or {})
    excluded = dict(excluded or {})
    sizes = list(spec.sizes)
    seed_sound = [0] * spec.n_sources
    seed_total = 0
    anonymous = spec.anonymous_size

    for j, count in forced.items():
        if count < 0:
            return None
        seed_total += count
        if j is None:
            anonymous -= count
            continue
        sizes[j] -= count
        for i in spec.signatures[j]:
            seed_sound[i] += count
    for j, count in excluded.items():
        if count < 0:
            return None
        if j is None:
            anonymous -= count
        else:
            sizes[j] -= count
    if anonymous < 0 or any(size < 0 for size in sizes):
        return None
    return ReducedProblem(
        signatures=spec.signatures,
        sizes=tuple(sizes),
        min_sound=spec.min_sound,
        completeness=spec.completeness,
        anonymous_size=anonymous,
        seed_sound=tuple(seed_sound),
        seed_total=seed_total,
    )


def to_wire(problem: Optional[ReducedProblem]) -> Optional[Tuple[int, ...]]:
    """Encode a reduced problem as one flat tuple of ints.

    The engine ships problems to worker processes; a flat int tuple pickles
    to a fraction of the bytes of the structured ``NamedTuple`` (no per-field
    framing, no :class:`~fractions.Fraction` objects — bounds travel as
    numerator/denominator pairs). The encoding is injective, so wire tuples
    are also usable as exact dedup keys. ``None`` (infeasible) passes through.
    """
    if problem is None:
        return None
    out = [
        problem.n_sources,
        len(problem.sizes),
        problem.anonymous_size,
        problem.seed_total,
    ]
    out.extend(problem.sizes)
    out.extend(problem.min_sound)
    out.extend(problem.seed_sound)
    for c in problem.completeness:
        out.append(c.numerator)
        out.append(c.denominator)
    for signature in problem.signatures:
        out.append(len(signature))
        out.extend(signature)
    return tuple(out)


def from_wire(wire: Optional[Tuple[int, ...]]) -> Optional[ReducedProblem]:
    """Decode :func:`to_wire`; exact inverse."""
    if wire is None:
        return None
    n_sources, n_blocks, anonymous_size, seed_total = wire[:4]
    at = 4
    sizes = wire[at:at + n_blocks]
    at += n_blocks
    min_sound = wire[at:at + n_sources]
    at += n_sources
    seed_sound = wire[at:at + n_sources]
    at += n_sources
    completeness = []
    for _ in range(n_sources):
        completeness.append(Fraction(wire[at], wire[at + 1]))
        at += 2
    signatures = []
    for _ in range(n_blocks):
        width = wire[at]
        at += 1
        signatures.append(wire[at:at + width])
        at += width
    return ReducedProblem(
        signatures=tuple(signatures),
        sizes=sizes,
        min_sound=min_sound,
        completeness=tuple(completeness),
        anonymous_size=anonymous_size,
        seed_sound=seed_sound,
        seed_total=seed_total,
    )


def solve_wire(
    wire: Optional[Tuple[int, ...]], track: Sequence[int] = ()
) -> Solution:
    """Decode-and-solve; the body workers run in other processes."""
    return solve(from_wire(wire), track)


def partial_binomial_sum(n: int, k_max: int) -> int:
    """``Σ_{k=0..min(k_max, n)} C(n, k)``; 2^n when k_max >= n."""
    if k_max < 0:
        return 0
    if k_max >= n:
        return 1 << n
    return sum(math.comb(n, k) for k in range(k_max + 1))


def max_total_for(
    completeness: Sequence[Fraction], sound_counts: Sequence[int]
) -> Optional[int]:
    """Largest |D| the completeness bounds allow; ``None`` = unbounded."""
    cap: Optional[int] = None
    for i, c in enumerate(completeness):
        if c > 0:
            limit = int(Fraction(sound_counts[i]) / c)
            cap = limit if cap is None else min(cap, limit)
    return cap


def field_width(sizes: Sequence[int]) -> int:
    """Bits per field of a tracked sweep's packed values (see :func:`sweep`).

    With S facts in the swept blocks, the weights of any set of states sum
    to at most 2^S and each block's moments to at most S·2^S, so every
    field of a state, or of a sum of states, stays below
    ``2 ** field_width(sizes)``.
    """
    swept = max(sum(sizes), 0)  # negative sizes: infeasible, swept to {}
    return swept + swept.bit_length() + 1


def sweep(
    signatures: Sequence[Tuple[int, ...]],
    sizes: Sequence[int],
    n_sources: int,
    initial_sound: Optional[Sequence[int]] = None,
    initial_total: int = 0,
    track: Sequence[int] = (),
    width: int = 0,
) -> StateMap:
    """The block DP: the value of every reachable (sound counts, total) state.

    A state's value is its weight: the number of ways to choose facts from
    the swept blocks that reach it. Once the layer of a block in *track* is
    swept, the value also carries that block's *moment*: the path-weighted
    number of facts chosen from it. The fields are packed into one int,
    *width* bits each (:func:`field_width`), the weight lowest and the
    moments above it in block order. Scaling a value by a binomial
    coefficient and summing two values then act on every field at once, and
    an empty *track* is exactly the plain weight DP.
    """
    start_sound = tuple(initial_sound) if initial_sound else (0,) * n_sources
    states: StateMap = {(start_sound, initial_total): 1}
    tracked = set(track)
    mask = (1 << width) - 1
    shift = 0
    for j, (signature, size) in enumerate(zip(signatures, sizes)):
        if size < 0:
            return {}
        # One move per number of chosen facts, shared by the whole layer.
        moves = [
            (
                tuple(
                    chosen if i in signature else 0 for i in range(n_sources)
                ),
                chosen,
                math.comb(size, chosen),
            )
            for chosen in range(size + 1)
        ]
        next_states: StateMap = {}
        get = next_states.get
        if j in tracked:
            shift += width
            for (sound, total), value in states.items():
                weight = value & mask
                for increment, chosen, coefficient in moves:
                    key = (tuple(map(add, sound, increment)), total + chosen)
                    next_states[key] = (
                        get(key, 0)
                        + value * coefficient
                        + ((weight * coefficient * chosen) << shift)
                    )
        else:
            for (sound, total), value in states.items():
                for increment, chosen, coefficient in moves:
                    key = (tuple(map(add, sound, increment)), total + chosen)
                    next_states[key] = get(key, 0) + value * coefficient
        states = next_states
    return states


def finish(
    states: StateMap,
    min_sound: Sequence[int],
    completeness: Sequence[Fraction],
    anonymous_size: int,
    track: Sequence[int] = (),
    width: int = 0,
) -> List[int]:
    """Fold the anonymous block into swept states and total every field.

    Returns the world count, then one total moment per tracked block in
    block order. A state may add up to *budget* anonymous facts, so the
    states are summed per budget while still packed, and each sum is
    unpacked once and scaled by its ``Σ_k C(anonymous_size, k)``: the
    anonymous factor, which can be far wider than a field, never enters a
    packed value.
    """
    by_budget: Dict[int, int] = {}
    n = len(min_sound)
    for (sound, covered_total), value in states.items():
        if any(sound[i] < min_sound[i] for i in range(n)):
            continue
        cap = max_total_for(completeness, sound)
        if cap is None:
            budget = anonymous_size
        else:
            budget = min(cap - covered_total, anonymous_size)
            if budget < 0:
                continue
        by_budget[budget] = by_budget.get(budget, 0) + value
    totals = [0] * (1 + len(set(track)))
    mask = (1 << width) - 1
    for budget, value in by_budget.items():
        anonymous_choices = partial_binomial_sum(anonymous_size, budget)
        for field in range(len(totals) - 1):
            totals[field] += (value & mask) * anonymous_choices
            value >>= width
        totals[-1] += value * anonymous_choices
    return totals


class Solution(NamedTuple):
    """What one sweep of a reduced problem counts."""

    count: int                    #: worlds of the problem
    dp_states: int                #: size of the final DP layer
    #: per tracked block: worlds containing one given free fact of it
    containing: Tuple[int, ...]


def solve(
    problem: Optional[ReducedProblem], track: Sequence[int] = ()
) -> Solution:
    """Count the worlds of a reduced problem in one sweep.

    For each block index in *track*, also count the worlds that contain
    one given free fact of that block, which is what the forced problem
    ``forced={j: 1}`` counts. Facts of a block are interchangeable, so
    summing ``|W ∩ B_j|`` over the worlds W gives ``|B_j|`` times that
    count: the block's moment divided by its free size, exactly, because
    ``C(n, k)·k = n·C(n−1, k−1)``. A block with no free fact counts zero.

    *dp_states* is the size of the final DP layer, the instrumentation's
    measure of how hard the sweep was. ``None`` problems (infeasible
    reductions) count zero worlds.
    """
    if problem is None:
        return Solution(0, 0, (0,) * len(track))
    width = field_width(problem.sizes)
    states = sweep(
        problem.signatures,
        problem.sizes,
        problem.n_sources,
        initial_sound=problem.seed_sound,
        initial_total=problem.seed_total,
        track=track,
        width=width,
    )
    count, *moments = finish(
        states,
        problem.min_sound,
        problem.completeness,
        problem.anonymous_size,
        track=track,
        width=width,
    )
    moment_of = dict(zip(sorted(set(track)), moments))
    sizes = problem.sizes
    containing = tuple(
        moment_of[j] // sizes[j] if sizes[j] else 0 for j in track
    )
    return Solution(count, len(states), containing)


def count_worlds(spec: CountingSpec) -> int:
    """``|poss(S)|`` over the finite fact space (``N_sol(Γ)``)."""
    return solve(reduce_spec(spec))[0]
