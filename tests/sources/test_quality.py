"""Tests for the §2.2 quality estimators."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.exceptions import SourceError
from repro.model import fact
from repro.sources.quality import (
    clopper_pearson_lower,
    completeness_from_fd,
    estimate_completeness,
    estimate_soundness,
    intended_size_from_fd,
    required_sample_size,
)


class TestClopperPearson:
    def test_all_successes_high_bound(self):
        assert clopper_pearson_lower(100, 100, 0.95) > 0.96

    def test_zero_successes(self):
        assert clopper_pearson_lower(0, 50, 0.95) == 0.0

    def test_bound_below_point_estimate(self):
        assert clopper_pearson_lower(80, 100, 0.95) < 0.8

    def test_monotone_in_confidence(self):
        loose = clopper_pearson_lower(80, 100, 0.9)
        tight = clopper_pearson_lower(80, 100, 0.99)
        assert tight < loose

    def test_invalid_arguments(self):
        with pytest.raises(SourceError):
            clopper_pearson_lower(5, 0, 0.95)
        with pytest.raises(SourceError):
            clopper_pearson_lower(5, 4, 0.95)
        with pytest.raises(SourceError):
            clopper_pearson_lower(1, 4, 1.5)


class TestEstimateSoundness:
    def test_lower_bound_actually_holds(self):
        rng = random.Random(11)
        truth = {fact("V", i) for i in range(80)}
        junk = {fact("V", 1000 + i) for i in range(20)}
        extension = truth | junk  # true soundness 0.8
        bound = estimate_soundness(
            extension, lambda f: f in truth, sample_size=60,
            confidence=0.95, rng=rng,
        )
        assert 0 < bound <= 0.9

    def test_empty_extension_is_sound(self):
        assert estimate_soundness([], lambda f: True, 10) == 1.0

    def test_sample_larger_than_extension_uses_all(self):
        truth = {fact("V", 1)}
        bound = estimate_soundness(truth, lambda f: True, 100, rng=random.Random(0))
        assert bound > 0


class TestSampleSize:
    def test_classic_values(self):
        # 95% confidence, 5% margin, p=0.5 -> ~385
        assert 380 <= required_sample_size(0.95, 0.05) <= 390

    def test_tighter_margin_needs_more(self):
        assert required_sample_size(0.95, 0.01) > required_sample_size(0.95, 0.1)

    def test_invalid(self):
        with pytest.raises(SourceError):
            required_sample_size(0, 0.05)
        with pytest.raises(SourceError):
            required_sample_size(0.95, 0)


class TestFDBasedCompleteness:
    def test_intended_size(self):
        # the paper's climatology case: stations x months
        assert intended_size_from_fd([6000, 12 * 294]) == 6000 * 3528

    def test_completeness_from_fd(self):
        assert completeness_from_fd(50, [10, 10]) == Fraction(1, 2)

    def test_capped_at_one(self):
        assert completeness_from_fd(200, [10, 10]) == 1

    def test_zero_domain(self):
        assert completeness_from_fd(0, [0, 5]) == 1

    def test_negative_rejected(self):
        with pytest.raises(SourceError):
            completeness_from_fd(-1, [10])
        with pytest.raises(SourceError):
            intended_size_from_fd([-2])


class TestEstimateCompleteness:
    def test_basic(self):
        assert estimate_completeness(50, 100, 0.8) == pytest.approx(0.4)

    def test_capped(self):
        assert estimate_completeness(300, 100, 1.0) == 1.0

    def test_trivial_intended(self):
        assert estimate_completeness(5, 0, 0.5) == 1.0

    def test_invalid(self):
        with pytest.raises(SourceError):
            estimate_completeness(-1, 10, 0.5)
        with pytest.raises(SourceError):
            estimate_completeness(1, 10, 1.5)


def test_import_repro_does_not_load_scipy():
    """Only the two estimators that call scipy import it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
