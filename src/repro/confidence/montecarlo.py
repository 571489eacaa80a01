"""Sampling possible worlds and Monte-Carlo confidence estimation.

For identity-view collections the block DP supports *exact uniform* sampling
from poss(S) (backward sampling through the DP layers), so Monte-Carlo
estimates converge to the exact confidences — experiment E4 measures the
error/time trade-off against exact counting. A generic rejection sampler is
included for arbitrary views over tiny domains (tests only).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import DomainTooLargeError, InconsistentCollectionError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.sources.collection import SourceCollection
from repro.confidence.blocks import IdentityInstance
from repro.confidence.engine import kernel
from repro.confidence.worlds import fact_space

State = Tuple[Tuple[int, ...], int]


def _weighted_index(weights: Sequence[int], rng: random.Random) -> int:
    """Index sampled proportionally to integer weights (exact arithmetic)."""
    total = sum(weights)
    if total <= 0:
        raise InconsistentCollectionError("no positive-weight alternatives")
    pick = rng.randrange(total)
    accumulated = 0
    for index, weight in enumerate(weights):
        accumulated += weight
        if pick < accumulated:
            return index
    raise AssertionError("unreachable")


class WorldSampler:
    """Exact uniform sampler over poss(S) for an identity-view collection.

    Runs the signature-block dynamic program once, storing every layer, then
    draws worlds by backward sampling: final state ∝ weight × anonymous
    choices, anonymous count ∝ C(N₀, j), per-block occupancy backwards
    through the layers, and finally uniform subsets within each block.

    >>> # see tests/confidence/test_montecarlo.py
    """

    def __init__(self, instance: IdentityInstance, rng: Optional[random.Random] = None):
        self.instance = instance
        self.rng = rng if rng is not None else random.Random()
        n = instance.n_sources
        start: State = ((0,) * n, 0)
        self.layers: List[Dict[State, int]] = [{start: 1}]
        for block in instance.blocks:
            previous = self.layers[-1]
            layer: Dict[State, int] = {}
            for (sound, total), weight in previous.items():
                for chosen in range(block.size + 1):
                    coefficient = math.comb(block.size, chosen)
                    new_sound = tuple(
                        sound[i] + (chosen if i in block.signature else 0)
                        for i in range(n)
                    )
                    key = (new_sound, total + chosen)
                    layer[key] = layer.get(key, 0) + weight * coefficient
            self.layers.append(layer)

        # Final states annotated with anonymous-block multiplicities.
        self.final_states: List[State] = []
        self.final_weights: List[int] = []
        self.anonymous_budgets: List[Optional[int]] = []
        for state, weight in self.layers[-1].items():
            sound, covered = state
            if any(sound[i] < instance.min_sound[i] for i in range(n)):
                continue
            cap = kernel.max_total_for(instance.completeness_bounds, sound)
            if cap is None:
                budget: Optional[int] = None
                choices = 1 << instance.anonymous_size
            else:
                budget = cap - covered
                if budget < 0:
                    continue
                choices = kernel.partial_binomial_sum(
                    instance.anonymous_size, budget
                )
            if weight * choices > 0:
                self.final_states.append(state)
                self.final_weights.append(weight * choices)
                self.anonymous_budgets.append(budget)
        self.total_worlds = sum(self.final_weights)

    def count_worlds(self) -> int:
        """|poss(S)| over the fact space (agrees with BlockCounter)."""
        return self.total_worlds

    def sample(self) -> GlobalDatabase:
        """One world drawn uniformly from poss(S)."""
        if self.total_worlds == 0:
            raise InconsistentCollectionError(
                "collection admits no possible database over this domain"
            )
        instance = self.instance
        rng = self.rng
        index = _weighted_index(self.final_weights, rng)
        state = self.final_states[index]
        budget = self.anonymous_budgets[index]

        # Anonymous occupancy: P(j) ∝ C(N0, j), j ≤ budget.
        n0 = instance.anonymous_size
        limit = n0 if budget is None else min(budget, n0)
        anon_weights = [math.comb(n0, j) for j in range(limit + 1)]
        anonymous_count = _weighted_index(anon_weights, rng)

        # Backward through the block layers.
        counts: List[int] = [0] * len(instance.blocks)
        for j in range(len(instance.blocks) - 1, -1, -1):
            block = instance.blocks[j]
            sound, total = state
            alternatives: List[Tuple[State, int]] = []
            weights: List[int] = []
            for chosen in range(min(block.size, total) + 1):
                previous_sound = tuple(
                    sound[i] - (chosen if i in block.signature else 0)
                    for i in range(instance.n_sources)
                )
                if any(x < 0 for x in previous_sound):
                    continue
                previous: State = (previous_sound, total - chosen)
                weight = self.layers[j].get(previous, 0)
                if weight:
                    alternatives.append((previous, chosen))
                    weights.append(weight * math.comb(block.size, chosen))
            picked = _weighted_index(weights, rng)
            state, counts[j] = alternatives[picked]

        facts: List[Atom] = []
        for block, count in zip(instance.blocks, counts):
            facts.extend(rng.sample(block.facts, count))
        facts.extend(self._sample_anonymous(anonymous_count))
        return GlobalDatabase(facts)

    def _sample_anonymous(self, count: int) -> List[Atom]:
        """*count* distinct facts outside every extension, uniformly."""
        if count == 0:
            return []
        instance = self.instance
        covered = {f for block in instance.blocks for f in block.facts}
        if instance.anonymous_size <= 4 * count or instance.anonymous_size <= 64:
            pool = [
                Atom(instance.relation, combo)
                for combo in product(instance.domain, repeat=instance.arity)
                if Atom(instance.relation, combo) not in covered
            ]
            return self.rng.sample(pool, count)
        chosen: set = set()
        while len(chosen) < count:
            combo = tuple(self.rng.choice(instance.domain) for _ in range(instance.arity))
            candidate = Atom(instance.relation, combo)
            if candidate not in covered:
                chosen.add(candidate)
        return list(chosen)

    def estimate_confidence(self, fact: Atom, samples: int) -> float:
        """Monte-Carlo estimate of confidence(fact) from *samples* draws."""
        renamed = Atom(self.instance.relation, fact.args)
        hits = sum(1 for _ in range(samples) if renamed in self.sample())
        return hits / samples

    def estimate_confidences(
        self, facts: Iterable[Atom], samples: int
    ) -> Dict[Atom, float]:
        """Joint Monte-Carlo estimates from one stream of sampled worlds."""
        renamed = [Atom(self.instance.relation, f.args) for f in facts]
        hits = {f: 0 for f in renamed}
        for _ in range(samples):
            world = self.sample()
            for f in renamed:
                if f in world:
                    hits[f] += 1
        return {f: h / samples for f, h in hits.items()}


def rejection_sample_worlds(
    collection: SourceCollection,
    domain: Iterable,
    samples: int,
    rng: Optional[random.Random] = None,
    max_tries: int = 1_000_000,
) -> List[GlobalDatabase]:
    """Uniform worlds for arbitrary views by rejection from random subsets.

    Exponentially inefficient in general (acceptance = |poss| / 2^N); only
    suitable for tiny fact spaces in tests and sanity checks.
    """
    rng = rng if rng is not None else random.Random()
    candidates = fact_space(collection, domain)
    if len(candidates) > 30:
        raise DomainTooLargeError(
            f"rejection sampling over {len(candidates)} candidate facts"
        )
    worlds: List[GlobalDatabase] = []
    tries = 0
    while len(worlds) < samples:
        tries += 1
        if tries > max_tries:
            raise InconsistentCollectionError(
                f"rejection sampling failed to find {samples} worlds in "
                f"{max_tries} tries (acceptance rate too low or inconsistent)"
            )
        subset = [f for f in candidates if rng.random() < 0.5]
        world = GlobalDatabase(subset)
        if collection.admits(world):
            worlds.append(world)
    return worlds
