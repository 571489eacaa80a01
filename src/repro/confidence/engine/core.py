"""The confidence engine: memoized exact counting + parallel Monte Carlo.

:class:`ConfidenceEngine` answers the same questions as
:class:`~repro.confidence.blocks.BlockCounter` — exact confidences over an
identity-view collection — but consults the memo first. A
``confidences()`` call is one counting question: the unforced problem is
keyed once, and its memo line holds ``|poss(S)|`` with every signature
block's numerator in the key's block order, which maps back to this
instance's blocks (and to any alpha-equivalent instance's). A miss is one
kernel sweep that tracks every block. Count-only questions
(``count_worlds``, ``joint_confidence``) keep one key each. Counting runs
in-process: one instance's confidences are one sweep, which no worker
pool can split. An engine is bound to one immutable instance, so with a
memo it keeps its ``confidences()`` result and hands out copies.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import InconsistentCollectionError
from repro.model.atoms import Atom
from repro.confidence.engine import kernel
from repro.confidence.engine.executors import make_executor
from repro.confidence.engine.memo import (
    CONFIDENCES,
    LRUMemo,
    canonical_key,
    shared_memo,
)
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
        ``None`` = share the process-wide memo; ``0`` = no memoization
        (every ``confidences()`` call counts again); otherwise a private
        :class:`LRUMemo` of that capacity.
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
        self._confidences: Optional[Dict[Atom, Fraction]] = None

    # -- exact counting ---------------------------------------------------------

    def _sweep(
        self, problem: kernel.ReducedProblem, track: Tuple[int, ...]
    ) -> kernel.Solution:
        """Run one kernel sweep in-process."""
        self.stats.tasks_dispatched += 1
        wire = kernel.to_wire(problem)
        with self.stats.time("count"):
            solution = kernel.solve_wire(wire, track)
        self.stats.dp_states += solution.dp_states
        return solution

    def _memo_line(
        self, problem: kernel.ReducedProblem, numerators: bool
    ) -> Tuple[object, Tuple[int, ...]]:
        """One counting question's memo line, swept on a miss.

        A count line is the world count of *problem*, under its canonical
        key. With *numerators* the line is ``(count, numerators)``, one
        numerator per block in the returned block order, under
        ``(CONFIDENCES, key)``; its miss is one sweep tracking every block.
        Returns the line and the block order.
        """
        self.stats.tasks_submitted += 1
        memo = self.memo
        key = None
        if memo is None:
            order = tuple(range(len(problem.sizes)))
        else:
            with self.stats.time("plan"):
                key, order = canonical_key(problem)
                if numerators:
                    key = (CONFIDENCES, key)
                hit, line = memo.lookup(key)
            if hit:
                self.stats.tasks_memoized += 1
                self.stats.cache = memo.stats()
                return line, order
        solution = self._sweep(problem, order if numerators else ())
        line = (
            (solution.count, solution.containing) if numerators
            else solution.count
        )
        if memo is not None:
            memo.store(key, line)
            self.stats.cache = memo.stats()
        return line, order

    def _count(self, problem: Optional[kernel.ReducedProblem]) -> int:
        """World count of one reduced problem (``None``: infeasible, 0)."""
        if problem is None:
            return 0
        count, _order = self._memo_line(problem, numerators=False)
        return count

    def count_worlds(self) -> int:
        """``|poss(S)|`` over the finite fact space."""
        count = self._count(kernel.reduce_spec(self.spec))
        self.stats.worlds_counted = count
        return count

    def is_consistent(self) -> bool:
        """Non-emptiness of poss(S) over the finite fact space."""
        return self.count_worlds() > 0

    def confidences(self) -> Dict[Atom, Fraction]:
        """Exact confidence of every covered fact (global form).

        One memo line answers the whole call (see :meth:`_memo_line`).
        Block-mates share their block's count (facts in a block are
        interchangeable). With a memo, the result is kept: later calls
        return a copy of it without keying, each counted as a memoized
        question.
        """
        if self._confidences is not None:
            self.stats.tasks_submitted += 1
            self.stats.tasks_memoized += 1
            return dict(self._confidences)
        instance = self.instance
        with self.stats.time("decompose"):
            problem = kernel.reduce_spec(self.spec)
        (denominator, numerators), order = self._memo_line(
            problem, numerators=True
        )
        self.stats.worlds_counted = denominator
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        with self.stats.time("assemble"):
            out: Dict[Atom, Fraction] = {}
            for j, numerator in zip(order, numerators):
                confidence = Fraction(numerator, denominator)
                for f in instance.blocks[j].facts:
                    out[f] = confidence
        if self.memo is not None:
            self._confidences = out
        return dict(out)

    def confidence(self, fact: Atom) -> Fraction:
        """Exact confidence of one fact (covered or anonymous)."""
        return self.joint_confidence([fact])

    def joint_confidence(self, facts: Iterable[Atom]) -> Fraction:
        """``Pr(all facts ∈ D | D ∈ poss(S))``: the denominator and one
        forced-blocks problem, one key and one count-only sweep on a miss
        each."""
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
            denominator_problem = kernel.reduce_spec(self.spec)
            numerator_problem = (
                kernel.reduce_spec(self.spec, forced=forced) if in_space else None
            )
        denominator = self._count(denominator_problem)
        self.stats.worlds_counted = denominator
        if denominator == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        return Fraction(self._count(numerator_problem), denominator)

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
