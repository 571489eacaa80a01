"""Tests for SourceDescriptor ⟨φ, v, c, s⟩."""

from fractions import Fraction

import pytest

from repro.exceptions import ArityError, BoundError, SourceError
from repro.model import GlobalDatabase, fact
from repro.queries import identity_view, parse_rule
from repro.sources import SourceDescriptor, as_bound


class TestBoundCoercion:
    def test_fraction_passthrough(self):
        assert as_bound(Fraction(1, 3)) == Fraction(1, 3)

    def test_string_fraction(self):
        assert as_bound("1/3") == Fraction(1, 3)

    def test_string_decimal(self):
        assert as_bound("0.5") == Fraction(1, 2)

    def test_float_uses_decimal_intent(self):
        assert as_bound(0.1) == Fraction(1, 10)

    def test_int(self):
        assert as_bound(1) == Fraction(1)
        assert as_bound(0) == Fraction(0)

    def test_out_of_range(self):
        with pytest.raises(BoundError):
            as_bound(1.5)
        with pytest.raises(BoundError):
            as_bound(-0.1)

    def test_garbage(self):
        with pytest.raises(BoundError):
            as_bound("not-a-number")
        with pytest.raises(BoundError):
            as_bound(True)


class TestValidation:
    def test_extension_relation_must_match_head(self):
        with pytest.raises(SourceError):
            SourceDescriptor(
                identity_view("V1", "R", 1), [fact("V2", "a")], 1, 1
            )

    def test_extension_arity_must_match_head(self):
        with pytest.raises(ArityError):
            SourceDescriptor(
                identity_view("V1", "R", 1), [fact("V1", "a", "b")], 1, 1
            )

    def test_default_name_is_view_relation(self):
        s = SourceDescriptor(identity_view("V1", "R", 1), [], 1, 1)
        assert s.name == "V1"


class TestDerivedQuantities:
    def test_min_sound_count_ceil(self):
        s = SourceDescriptor(
            identity_view("V", "R", 1),
            [fact("V", i) for i in range(3)],
            0,
            "1/2",
        )
        assert s.min_sound_count() == 2  # ceil(1.5)

    def test_min_sound_count_zero_bound(self):
        s = SourceDescriptor(
            identity_view("V", "R", 1), [fact("V", 1)], 0, 0
        )
        assert s.min_sound_count() == 0

    def test_max_intended_size_floor(self):
        s = SourceDescriptor(identity_view("V", "R", 1), [], "1/3", 0)
        assert s.max_intended_size(2) == 6  # floor(2 / (1/3))

    def test_max_intended_size_unbounded(self):
        s = SourceDescriptor(identity_view("V", "R", 1), [], 0, 0)
        assert s.max_intended_size(2) is None

    def test_size(self):
        s = SourceDescriptor(
            identity_view("V", "R", 1), [fact("V", 1), fact("V", 2)], 0, 0
        )
        assert s.size() == 2


class TestMeasuresAndSatisfaction:
    def test_satisfied_by(self):
        view = parse_rule("V(x) <- R(x, y)")
        s = SourceDescriptor(view, [fact("V", 1), fact("V", 9)], "1/2", "1/2")
        db = GlobalDatabase([fact("R", 1, 2), fact("R", 2, 3)])
        # completeness 1/2, soundness 1/2 -> bounds met with equality
        assert s.satisfied_by(db)
        tighter = s.with_bounds(soundness_bound="3/4")
        assert not tighter.satisfied_by(db)

    def test_satisfied_by_evaluates_the_view_once(self, monkeypatch):
        from repro.queries import ConjunctiveQuery

        calls = []
        apply = ConjunctiveQuery.apply

        def counting_apply(query, database):
            calls.append(query)
            return apply(query, database)

        monkeypatch.setattr(ConjunctiveQuery, "apply", counting_apply)
        view = parse_rule("V(x) <- R(x, y)")
        s = SourceDescriptor(view, [fact("V", 1), fact("V", 9)], "1/2", "1/2")
        db = GlobalDatabase([fact("R", 1, 2), fact("R", 2, 3)])
        # Completeness holds, so both measures are checked.
        assert s.satisfied_by(db)
        assert len(calls) == 1

    def test_intended_content(self):
        view = parse_rule("V(x) <- R(x, y)")
        s = SourceDescriptor(view, [], 0, 0)
        db = GlobalDatabase([fact("R", 1, 2)])
        assert s.intended_content(db) == frozenset({fact("V", 1)})

    def test_is_identity(self):
        assert SourceDescriptor(identity_view("V", "R", 2), [], 0, 0).is_identity()
        view = parse_rule("V(x) <- R(x, y)")
        assert not SourceDescriptor(view, [], 0, 0).is_identity()

    def test_equality_and_hash(self):
        a = SourceDescriptor(identity_view("V", "R", 1), [fact("V", 1)], 0, 1)
        b = SourceDescriptor(identity_view("V", "R", 1), [fact("V", 1)], 0, 1)
        assert a == b and hash(a) == hash(b)
        assert a != a.with_bounds(completeness_bound="1/2")
