"""Tests for the general CONSISTENCY checker."""

import pytest

from repro.exceptions import SourceError
from repro.model import Constant, GlobalDatabase, Variable, fact
from repro.queries import identity_view, parse_rule
from repro.sources import SourceCollection, SourceDescriptor
from repro.consistency import (
    check_consistency,
    is_consistent,
    verify_witness,
)

from tests.oracles import quotient_valuations


class TestDispatch:
    def test_empty_collection_consistent(self):
        result = check_consistency(SourceCollection([]))
        assert result.consistent and result.method == "empty-collection"

    def test_identity_fast_path_used(self, example51):
        assert check_consistency(example51).method == "identity-dp"

    def test_builtins_rejected(self):
        view = parse_rule("V(x) <- R(x), After(x, 0)")
        col = SourceCollection([SourceDescriptor(view, [], 0, 0, name="A")])
        with pytest.raises(SourceError):
            check_consistency(col)


class TestGeneralViews:
    def test_projection_view_exact(self, exact_single_source):
        result = check_consistency(exact_single_source)
        assert result.consistent and result.method == "canonical-freeze"
        assert verify_witness(exact_single_source, result.witness)

    def test_join_view(self):
        view = parse_rule("V(x, z) <- R(x, y), S(y, z)")
        col = SourceCollection(
            [SourceDescriptor(view, [fact("V", "a", "b")], 1, 1, name="S1")]
        )
        result = check_consistency(col)
        assert result.consistent
        assert fact("V", "a", "b") in view.apply(result.witness)

    def test_partial_bounds_general_view(self):
        view = parse_rule("V(x) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(
                    view,
                    [fact("V", "a"), fact("V", "b"), fact("V", "junk")],
                    "1/2",
                    "2/3",
                    name="S1",
                )
            ]
        )
        result = check_consistency(col)
        assert result.consistent
        assert verify_witness(col, result.witness)

    def test_inconsistent_exact_empty_vs_nonempty(self):
        v1 = parse_rule("V1(x) <- R(x, y)")
        v2 = parse_rule("V2(x) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(v1, [fact("V1", "a")], 1, 1, name="S1"),
                SourceDescriptor(v2, [], 1, 1, name="S2"),
            ]
        )
        result = check_consistency(col)
        assert not result.consistent and result.decisive

    def test_two_sources_shared_relation(self):
        v1 = parse_rule("V1(x) <- R(x, y)")
        v2 = parse_rule("V2(y) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(v1, [fact("V1", "a")], 1, 1, name="S1"),
                SourceDescriptor(v2, [fact("V2", "b")], 1, 1, name="S2"),
            ]
        )
        result = check_consistency(col)
        assert result.consistent
        witness = result.witness
        assert {f.args[0].value for f in v1.apply(witness)} == {"a"}
        assert {f.args[0].value for f in v2.apply(witness)} == {"b"}

    def test_quotient_search_needed(self):
        """A case the canonical freeze cannot solve: completeness forces the
        two grounded bodies to merge into a single R fact."""
        view = parse_rule("W(x) <- R(x, y)")
        exact_projection = parse_rule("U(y) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(view, [fact("W", "a")], 1, 1, name="S1"),
                # exact: the second column takes exactly the single value "z"
                SourceDescriptor(
                    exact_projection, [fact("U", "z")], 1, 1, name="S2"
                ),
            ]
        )
        result = check_consistency(col)
        assert result.consistent
        assert verify_witness(col, result.witness)


class TestTruncation:
    def test_truncated_negative_is_indecisive(self):
        view = parse_rule("W(x) <- R(x, y)")
        exact_projection = parse_rule("U(y) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(view, [fact("W", "a")], 1, 1, name="S1"),
                SourceDescriptor(exact_projection, [fact("U", "z")], 1, 1, name="S2"),
            ]
        )
        result = check_consistency(col, max_quotients=0)
        # freeze fails, quotients capped at 0 -> indecisive negative
        assert not result.consistent and not result.decisive


class TestQuotientValuations:
    def test_canonical_fresh_growth(self):
        x, y = Variable("x"), Variable("y")
        constants = [Constant("a")]
        valuations = list(quotient_valuations([x, y], constants))
        # images: {a,f1} x {a, f_used+1} with restricted growth:
        # (a,a), (a,f1), (f1,a), (f1,f1), (f1,f2) -> 5
        assert len(valuations) == 5
        images = {
            (v.get(x).value, v.get(y).value) for v in valuations
        }
        assert ("a", "a") in images
        assert len(images) == 5

    def test_no_variables(self):
        valuations = list(quotient_valuations([], [Constant("a")]))
        assert len(valuations) == 1 and len(valuations[0]) == 0
