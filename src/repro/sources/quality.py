"""Estimating soundness/completeness bounds (Section 2.2 discussion).

The paper observes that in practice (c, s) are *estimated*: accounting
systems audit samples of records at a desired confidence level, and in the
climatology example the exact size of the complete database is computable
(number of stations × number of months) because a functional dependency with
known finite determining domains fixes |φ(D)| a priori.

This module provides those two estimation routes:

* :func:`estimate_soundness` — audit a random sample of the extension with a
  correctness oracle and return a one-sided lower confidence bound (exact
  Clopper–Pearson via the Beta distribution).
* :func:`completeness_from_fd` / :func:`intended_size_from_fd` — derive the
  intended-content size from a functional dependency A_1..A_l → A_{l+1}..A_k
  with known determining-attribute domains, giving a *deterministic*
  completeness lower bound |v ∩ sound| / |φ(D)|.
* :func:`required_sample_size` — the classical sample-size calculation the
  auditing methodology uses.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from repro.exceptions import SourceError
from repro.model.atoms import Atom


def clopper_pearson_lower(successes: int, trials: int, confidence: float) -> float:
    """Exact one-sided lower confidence bound for a binomial proportion.

    ``P(p >= bound) >= confidence`` for the true proportion p given
    *successes* out of *trials*. Returns 0.0 when successes == 0.
    """
    if trials <= 0:
        raise SourceError("sample size must be positive")
    if not 0 <= successes <= trials:
        raise SourceError(f"successes {successes} outside [0, {trials}]")
    if not 0 < confidence < 1:
        raise SourceError(f"confidence must be in (0, 1): {confidence}")
    if successes == 0:
        return 0.0
    from scipy import stats  # imported here: scipy is slow to import

    alpha = 1.0 - confidence
    return float(stats.beta.ppf(alpha, successes, trials - successes + 1))


def estimate_soundness(
    extension: Iterable[Atom],
    oracle: Callable[[Atom], bool],
    sample_size: int,
    confidence: float = 0.95,
    rng: Optional[random.Random] = None,
) -> float:
    """Audit-sample soundness estimation.

    Draws *sample_size* facts (without replacement when possible) from the
    extension, asks the *oracle* whether each is correct, and returns the
    Clopper–Pearson lower confidence bound on the soundness — a defensible
    value for the descriptor's ``s`` parameter.
    """
    facts = sorted(extension)
    if not facts:
        return 1.0  # an empty source is vacuously sound
    rng = rng if rng is not None else random.Random()
    if sample_size >= len(facts):
        sample = facts
    else:
        sample = rng.sample(facts, sample_size)
    correct = sum(1 for f in sample if oracle(f))
    return clopper_pearson_lower(correct, len(sample), confidence)


def required_sample_size(confidence: float, margin: float, p_guess: float = 0.5) -> int:
    """Normal-approximation sample size for estimating a proportion.

    ``n = z² p(1-p) / margin²`` — the standard auditing formula (Kaplan &
    Krishnan's methodology referenced by the paper infers sample sizes from
    the desired confidence in this way).
    """
    if not 0 < confidence < 1:
        raise SourceError(f"confidence must be in (0, 1): {confidence}")
    if not 0 < margin < 1:
        raise SourceError(f"margin must be in (0, 1): {margin}")
    from scipy import stats  # imported here: scipy is slow to import

    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    return max(1, math.ceil(z * z * p_guess * (1.0 - p_guess) / (margin * margin)))


def intended_size_from_fd(determining_domain_sizes: Sequence[int]) -> int:
    """|φ(D)| under a functional dependency with known determining domains.

    For ``R(A_1..A_k)`` with FD ``A_1..A_l → A_{l+1}..A_k`` and finite
    domains for the determining attributes, the complete relation has exactly
    ``∏ |dom(A_j)|`` tuples (the climatology case: stations × months).
    """
    if any(d < 0 for d in determining_domain_sizes):
        raise SourceError("domain sizes must be non-negative")
    size = 1
    for d in determining_domain_sizes:
        size *= d
    return size


def completeness_from_fd(
    sound_fact_count: int, determining_domain_sizes: Sequence[int]
) -> Fraction:
    """A deterministic completeness lower bound from the FD argument.

    *sound_fact_count* correct facts out of an intended content of exactly
    ``∏ |dom(A_j)|`` tuples give completeness ``≥ sound_fact_count / |φ(D)|``.
    """
    total = intended_size_from_fd(determining_domain_sizes)
    if total == 0:
        return Fraction(1)
    if sound_fact_count < 0:
        raise SourceError("sound fact count must be non-negative")
    return min(Fraction(1), Fraction(sound_fact_count, total))


def estimate_completeness(
    extension_size: int,
    intended_size: int,
    estimated_soundness: float,
) -> float:
    """Completeness estimate when |φ(D)| is known and soundness estimated.

    ``c ≈ s·|v| / |φ(D)|``: only the sound fraction of the extension counts
    toward coverage of the intended content.
    """
    if intended_size <= 0:
        return 1.0
    if extension_size < 0:
        raise SourceError("extension size must be non-negative")
    if not 0 <= estimated_soundness <= 1:
        raise SourceError(f"soundness outside [0, 1]: {estimated_soundness}")
    return min(1.0, estimated_soundness * extension_size / intended_size)
