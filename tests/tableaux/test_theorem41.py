"""Differential tests for Theorem 4.1: poss(S) = ∪_U rep(T^U(S))."""

import pytest

from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.sources import SourceCollection, SourceDescriptor
from repro.tableaux import (
    direct_possible_worlds,
    template_possible_worlds,
    theorem41_holds,
)

from tests.conftest import example51_domain, make_example51_collection


class TestIdentityCollections:
    def test_example51_m1(self, example51):
        assert theorem41_holds(example51, example51_domain(1))

    def test_example51_m0(self, example51):
        assert theorem41_holds(example51, example51_domain(0))

    def test_single_exact(self):
        col = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1),
                    [fact("V1", "a"), fact("V1", "b")],
                    1,
                    1,
                    name="S1",
                )
            ]
        )
        assert theorem41_holds(col, ["a", "b", "c"])

    def test_sound_only(self):
        col = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1), [fact("V1", "a")], 0, 1, name="S1"
                )
            ]
        )
        assert theorem41_holds(col, ["a", "b"])

    def test_complete_only(self):
        col = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1), [fact("V1", "a")], 1, 0, name="S1"
                )
            ]
        )
        assert theorem41_holds(col, ["a", "b"])

    def test_loose_completeness_bound_gives_a_nine_row_constraint(self):
        # c = 1/4 over two sound facts: m = 8, so C^U(S1) is 9 copies of
        # R(x) with 72 substitutions, and |D|^9 embeddings into a 4-fact
        # world. The template side must still agree with poss(S) quickly.
        col = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1),
                    [fact("V1", "a"), fact("V1", "b")],
                    "1/4",
                    1,
                    name="S1",
                )
            ]
        )
        assert theorem41_holds(col, ["a", "b", "c", "d"])

    def test_inconsistent_both_sides_empty(self):
        col = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1), [fact("V1", "a")], 1, 1, name="S1"
                ),
                SourceDescriptor(
                    identity_view("V2", "R", 1), [fact("V2", "b")], 0, 1, name="S2"
                ),
            ]
        )
        assert direct_possible_worlds(col, ["a", "b"]) == set()
        assert template_possible_worlds(col, ["a", "b"]) == set()


class TestGeneralViews:
    def test_projection_view(self):
        view = parse_rule("V1(x) <- R(x, y)")
        col = SourceCollection(
            [SourceDescriptor(view, [fact("V1", "a")], 1, 1, name="S1")]
        )
        assert theorem41_holds(col, ["a", "b"])

    def test_projection_view_partial_bounds(self):
        view = parse_rule("V1(x) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(
                    view, [fact("V1", "a"), fact("V1", "b")], "1/2", "1/2", name="S1"
                )
            ]
        )
        assert theorem41_holds(col, ["a", "b"])

    def test_two_relations(self):
        view = parse_rule("V1(x) <- R(x), S(x)")
        col = SourceCollection(
            [SourceDescriptor(view, [fact("V1", "a")], 1, 1, name="S1")]
        )
        assert theorem41_holds(col, ["a", "b"])

    def test_mixed_sources(self):
        v1 = parse_rule("V1(x) <- R(x, y)")
        v2 = parse_rule("V2(y) <- R(x, y)")
        col = SourceCollection(
            [
                SourceDescriptor(v1, [fact("V1", "a")], 1, "1/1", name="S1"),
                SourceDescriptor(v2, [fact("V2", "b")], 1, 1, name="S2"),
            ]
        )
        assert theorem41_holds(col, ["a", "b"])
