"""Example 5.1 end-to-end: the paper's only worked quantitative example.

Our exact counts (verified below against brute-force enumeration of the
definition, and by hand for m = 1) give

    confidence(R(a)) = confidence(R(c)) = (m+3)/(2m+5)
    confidence(R(b)) = (2m+4)/(2m+5)
    confidence(R(d_i)) = 2/(2m+5)

over dom = {a, b, c, d_1..d_m}. The paper prints (m+2)/(2m+3), (2m+2)/(2m+3)
and 2/(2m+3) — exactly our formulas with m replaced by m−1, i.e. an
off-by-one in the paper's arithmetic (its qualitative limits 1/2, 1, 0 as
m → ∞ are unaffected and are asserted here too).
"""

from fractions import Fraction

import pytest

from repro.model import fact
from repro.confidence import (
    BlockCounter,
    ConfidenceEngine,
    GammaSystem,
    IdentityInstance,
    covered_fact_confidences,
)

from tests.conftest import example51_domain, make_example51_collection


def counter(m: int) -> BlockCounter:
    return BlockCounter(
        IdentityInstance(make_example51_collection(), example51_domain(m))
    )


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50])
    def test_confidence_a_and_c(self, m):
        bc = counter(m)
        expected = Fraction(m + 3, 2 * m + 5)
        assert bc.confidence(fact("R", "a")) == expected
        assert bc.confidence(fact("R", "c")) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50])
    def test_confidence_b(self, m):
        assert counter(m).confidence(fact("R", "b")) == Fraction(
            2 * m + 4, 2 * m + 5
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_confidence_d(self, m):
        bc = counter(m)
        expected = Fraction(2, 2 * m + 5)
        for i in range(1, m + 1):
            assert bc.confidence(fact("R", f"d{i}")) == expected

    @pytest.mark.parametrize("m", [2, 4])
    def test_paper_formula_is_ours_shifted(self, m):
        """The paper's (m+2)/(2m+3) equals our exact value at m−1."""
        assert counter(m - 1).confidence(fact("R", "a")) == Fraction(
            m + 2, 2 * m + 3
        )
        assert counter(m - 1).confidence(fact("R", "b")) == Fraction(
            2 * m + 2, 2 * m + 3
        )


class TestHandEnumeration:
    def test_m1_worlds_by_hand(self):
        """For m = 1 the 7 possible worlds are checkable by hand."""
        bc = counter(1)
        assert bc.count_worlds() == 7
        assert bc.confidence(fact("R", "a")) == Fraction(4, 7)
        assert bc.confidence(fact("R", "b")) == Fraction(6, 7)
        assert bc.confidence(fact("R", "d1")) == Fraction(2, 7)


class TestOneSweepRoutes:
    """Every route through the one-sweep counting gives the m = 1 values."""

    EXPECTED = {
        fact("R", "a"): Fraction(4, 7),
        fact("R", "b"): Fraction(6, 7),
        fact("R", "c"): Fraction(4, 7),
    }

    def test_engine(self):
        with ConfidenceEngine(
            make_example51_collection(), example51_domain(1), cache_size=0
        ) as engine:
            assert engine.confidences() == self.EXPECTED
            assert engine.stats.worlds_counted == 7
            assert engine.stats.tasks_dispatched == 1

    def test_block_confidences(self):
        bc = counter(1)
        per_block = bc.block_confidences()
        assert bc.count_worlds() == 7
        assert {
            f: per_block[j]
            for j, block in enumerate(bc.instance.blocks)
            for f in block.facts
        } == self.EXPECTED

    def test_block_confidences_with_a_large_anonymous_block(self):
        m = 100_000
        bc = counter(m)
        per_block = bc.block_confidences()
        assert bc.count_worlds() == 2 * m + 5
        assert per_block[bc.instance.block_of(fact("R", "b"))] == Fraction(
            2 * m + 4, 2 * m + 5
        )
        assert per_block[bc.instance.block_of(fact("R", "a"))] == Fraction(
            m + 3, 2 * m + 5
        )

    def test_covered_fact_confidences(self):
        assert (
            covered_fact_confidences(
                make_example51_collection(), example51_domain(1)
            )
            == self.EXPECTED
        )


class TestLimits:
    def test_limits_match_paper_intuition(self):
        """m → ∞: conf(b) → 1, conf(a) → 1/2, conf(d_i) → 0."""
        bc = counter(400)
        assert abs(float(bc.confidence(fact("R", "b"))) - 1.0) < 0.01
        assert abs(float(bc.confidence(fact("R", "a"))) - 0.5) < 0.01
        assert float(bc.confidence(fact("R", "d1"))) < 0.01

    def test_monotone_in_m(self):
        """conf(b) increases with m; conf(d) decreases."""
        values_b = [counter(m).confidence(fact("R", "b")) for m in (1, 3, 6)]
        assert values_b == sorted(values_b)
        values_d = [counter(m).confidence(fact("R", "d1")) for m in (1, 3, 6)]
        assert values_d == sorted(values_d, reverse=True)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_system_agrees(self, m):
        collection = make_example51_collection()
        domain = example51_domain(m)
        instance = IdentityInstance(collection, domain)
        gamma = GammaSystem(instance)
        blocks = BlockCounter(instance)
        assert gamma.count_solutions() == blocks.count_worlds()
        for value in domain:
            f = fact("R", value)
            assert gamma.confidence(f) == blocks.confidence(f), (m, value)
