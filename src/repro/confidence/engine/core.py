"""The confidence engine: memoized exact counting + parallel Monte Carlo.

:class:`ConfidenceEngine` answers the same questions as
:class:`~repro.confidence.blocks.BlockCounter` — exact confidences over an
identity-view collection — but consults the memo first. Every counting
question keeps its own canonical key (the denominator, and one numerator
per signature block); the questions the memo misses are answered by one
kernel sweep that tracks the missed blocks, and every count it returns is
stored under its key. Counting runs in-process: one instance's confidences
are one sweep, which no worker pool can split.

Monte-Carlo estimation splits the sample budget into fixed-size chunks with
per-chunk deterministic seeds, so the estimate is a pure function of
``(instance, facts, samples, seed)`` — *identical* under every executor;
the executor only decides how many chunks run concurrently. The chunk list
and the aggregation are fixed before dispatch, which is what makes serial
and parallel estimates bit-identical, tested property-style in
``tests/property/test_engine_equivalence.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InconsistentCollectionError
from repro.model.atoms import Atom
from repro.confidence.engine import kernel
from repro.confidence.engine.executors import make_executor
from repro.confidence.engine.memo import LRUMemo, canonical_key, shared_memo
from repro.confidence.engine.stats import EngineStats

if TYPE_CHECKING:  # imported lazily at runtime (blocks.py imports the kernel)
    from repro.confidence.blocks import IdentityInstance
    from repro.sources.collection import SourceCollection

#: Monte-Carlo samples per dispatch chunk (fixed so that the chunking — and
#: therefore the estimate — does not depend on the executor or worker count).
DEFAULT_SAMPLES_PER_CHUNK = 1000


def _mc_task(payload) -> Tuple[List[int], int]:
    """Worker body for one Monte-Carlo chunk: per-fact hit counts."""
    instance, facts, n_samples, seed = payload
    from repro.confidence.montecarlo import WorldSampler

    sampler = WorldSampler(instance, random.Random(seed))
    hits = [0] * len(facts)
    for _ in range(n_samples):
        world = sampler.sample()
        for index, f in enumerate(facts):
            if f in world:
                hits[index] += 1
    return hits, n_samples


def _chunk_seed(seed: int, chunk_index: int) -> int:
    """Deterministic, well-spread per-chunk RNG seed."""
    return (seed * 1_000_003 + chunk_index) & 0xFFFFFFFFFFFF


class ConfidenceEngine:
    """Memoized confidence computation for identity collections.

    Parameters
    ----------
    collection:
        A :class:`SourceCollection` (with *domain*) or a prebuilt
        :class:`IdentityInstance`.
    workers:
        ``0``/``1`` = serial; ``>= 2`` = that many worker processes. They
        run Monte-Carlo chunks only; exact counting always runs in-process.
    cache_size:
        ``None`` = share the process-wide memo; ``0`` = no memoization;
        otherwise a private :class:`LRUMemo` of that capacity.
    memo / executor:
        Explicit instances override the above (e.g. to share a memo
        between engines while keeping private executors). The executor,
        like *workers*, runs Monte-Carlo chunks only.
    """

    def __init__(
        self,
        collection: Union[SourceCollection, IdentityInstance],
        domain: Optional[Iterable] = None,
        *,
        workers: int = 0,
        cache_size: Optional[int] = None,
        memo: Optional[LRUMemo] = None,
        executor=None,
    ):
        from repro.confidence.blocks import IdentityInstance

        if isinstance(collection, IdentityInstance):
            self.instance = collection
        else:
            if domain is None:
                raise ValueError(
                    "ConfidenceEngine needs a domain alongside a collection"
                )
            self.instance = IdentityInstance(collection, domain)
        self.spec = kernel.spec_of(self.instance)
        if memo is not None:
            self.memo: Optional[LRUMemo] = memo
        elif cache_size is None:
            self.memo = shared_memo()
        elif cache_size == 0:
            self.memo = None
        else:
            self.memo = LRUMemo(cache_size)
        self.executor = (
            executor if executor is not None else make_executor(workers)
        )
        self.stats = EngineStats(
            executor=self.executor.name, workers=self.executor.workers
        )

    # -- exact counting ---------------------------------------------------------

    def _sweep(
        self, tasks: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    ) -> List[kernel.Solution]:
        """Run ``(wire, track)`` sweeps in-process, in order."""
        self.stats.tasks_dispatched += len(tasks)
        with self.stats.time("count"):
            solutions = [kernel.solve_wire(wire, track) for wire, track in tasks]
        self.stats.dp_states += sum(s.dp_states for s in solutions)
        return solutions

    def _count_many(
        self,
        problems: Sequence[Optional[kernel.ReducedProblem]],
        blocks: Optional[Sequence[Optional[int]]] = None,
    ) -> List[int]:
        """Counts for several reduced problems: memo, dedup, then dispatch.

        Without *blocks*, each distinct missed problem is one sweep. With
        *blocks*, ``problems[0]`` is the unforced problem and
        ``problems[i]`` forces one fact of block ``blocks[i]`` in
        (``blocks[0]`` is ``None``): every miss is then answered by one
        sweep of ``problems[0]`` that tracks the missed blocks.
        """
        counts: List[int] = [0] * len(problems)
        pending: Dict[object, List[int]] = {}
        with self.stats.time("plan"):
            for index, problem in enumerate(problems):
                if problem is None:
                    continue
                self.stats.tasks_submitted += 1
                key = canonical_key(problem) if self.memo is not None else problem
                if self.memo is not None:
                    hit, value = self.memo.lookup(key)
                    if hit:
                        self.stats.tasks_memoized += 1
                        counts[index] = value
                        continue
                pending.setdefault(key, []).append(index)

        if pending:
            firsts = [indices[0] for indices in pending.values()]
            if blocks is None:
                solutions = self._sweep(
                    [(kernel.to_wire(problems[i]), ()) for i in firsts]
                )
                found = [solution.count for solution in solutions]
            else:
                track = tuple(blocks[i] for i in firsts if blocks[i] is not None)
                [solution] = self._sweep([(kernel.to_wire(problems[0]), track)])
                by_block = dict(zip(track, solution.containing))
                by_block[None] = solution.count
                found = [by_block[blocks[i]] for i in firsts]
            for (key, indices), count in zip(pending.items(), found):
                if self.memo is not None:
                    self.memo.store(key, count)
                for index in indices:
                    counts[index] = count

        if self.memo is not None:
            self.stats.cache = self.memo.stats()
        return counts

    def count_worlds(self) -> int:
        """``|poss(S)|`` over the finite fact space."""
        count = self._count_many([kernel.reduce_spec(self.spec)])[0]
        self.stats.worlds_counted = count
        return count

    def is_consistent(self) -> bool:
        """Non-emptiness of poss(S) over the finite fact space."""
        return self.count_worlds() > 0

    def confidences(self) -> Dict[Atom, Fraction]:
        """Exact confidence of every covered fact (global form).

        The denominator and one numerator per signature block are looked up
        under their own keys; whatever misses is counted by one sweep of the
        unforced problem that tracks the missed blocks (alpha-equivalent
        blocks share a key, so one of them is tracked). Block-mates share
        their block's count (facts in a block are interchangeable).
        """
        instance = self.instance
        with self.stats.time("decompose"):
            blocks: List[Optional[int]] = [None]
            blocks += [j for j, block in enumerate(instance.blocks) if block.facts]
            problems = [kernel.reduce_spec(self.spec)]
            problems += [
                kernel.reduce_spec(self.spec, forced={j: 1}) for j in blocks[1:]
            ]
        counts = self._count_many(problems, blocks)
        denominator = counts[0]
        self.stats.worlds_counted = denominator
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        with self.stats.time("assemble"):
            out: Dict[Atom, Fraction] = {}
            for j, numerator in zip(blocks[1:], counts[1:]):
                confidence = Fraction(numerator, denominator)
                for f in instance.blocks[j].facts:
                    out[f] = confidence
        return out

    def confidence(self, fact: Atom) -> Fraction:
        """Exact confidence of one fact (covered or anonymous)."""
        return self.joint_confidence([fact])

    def joint_confidence(self, facts: Iterable[Atom]) -> Fraction:
        """``Pr(all facts ∈ D | D ∈ poss(S))``: the denominator and one
        forced-blocks problem, two count-only sweeps on a miss."""
        instance = self.instance
        with self.stats.time("decompose"):
            forced: Dict[Optional[int], int] = {}
            in_space = True
            for f in {Atom(instance.relation, f.args) for f in facts}:
                if not instance.in_fact_space(f):
                    in_space = False
                    break
                j = instance.block_of(f)
                forced[j] = forced.get(j, 0) + 1
            problems: List[Optional[kernel.ReducedProblem]] = [
                kernel.reduce_spec(self.spec),
                kernel.reduce_spec(self.spec, forced=forced) if in_space else None,
            ]
        counts = self._count_many(problems)
        self.stats.worlds_counted = counts[0]
        if counts[0] == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        return Fraction(counts[1], counts[0])

    # -- Monte Carlo ------------------------------------------------------------

    def estimate_confidences(
        self,
        facts: Iterable[Atom],
        samples: int,
        seed: int = 0,
        samples_per_chunk: int = DEFAULT_SAMPLES_PER_CHUNK,
    ) -> Dict[Atom, float]:
        """Monte-Carlo confidence estimates from *samples* uniform worlds.

        The budget is split into ``ceil(samples / samples_per_chunk)``
        chunks, each drawn by an independent sampler seeded from
        ``(seed, chunk index)`` — deterministic and executor-independent.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        instance = self.instance
        renamed = tuple(
            dict.fromkeys(Atom(instance.relation, f.args) for f in facts)
        )
        with self.stats.time("decompose"):
            chunks = []
            remaining = samples
            chunk_index = 0
            while remaining > 0:
                n = min(samples_per_chunk, remaining)
                chunks.append(
                    (instance, renamed, n, _chunk_seed(seed, chunk_index))
                )
                remaining -= n
                chunk_index += 1
        with self.stats.time("montecarlo"):
            results = self.executor.map(_mc_task, chunks)
        with self.stats.time("assemble"):
            totals = [0] * len(renamed)
            drawn = 0
            for hits, n in results:
                drawn += n
                for index, h in enumerate(hits):
                    totals[index] += h
            self.stats.samples_drawn += drawn
            return {f: totals[i] / drawn for i, f in enumerate(renamed)}

    def estimate_confidence(
        self,
        fact: Atom,
        samples: int,
        seed: int = 0,
        samples_per_chunk: int = DEFAULT_SAMPLES_PER_CHUNK,
    ) -> float:
        """Monte-Carlo estimate for a single fact."""
        estimates = self.estimate_confidences(
            [fact], samples, seed=seed, samples_per_chunk=samples_per_chunk
        )
        return next(iter(estimates.values()))

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release worker processes (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "ConfidenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
