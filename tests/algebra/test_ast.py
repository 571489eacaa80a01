"""Tests for the relational-algebra AST and evaluation."""

import pytest

from repro.exceptions import QueryError
from repro.plan import PlanError
from repro.model import Constant, GlobalDatabase, fact
from repro.algebra import (
    Col,
    Comparison,
    Condition,
    Product,
    Projection,
    RelationScan,
    Selection,
    UnionNode,
    join,
    rows_to_facts,
)


def rows(*tuples):
    return frozenset(tuple(Constant(v) for v in t) for t in tuples)


@pytest.fixture
def db():
    return GlobalDatabase(
        [
            fact("R", 1, "a"),
            fact("R", 2, "b"),
            fact("S", "a", 10),
            fact("S", "b", 20),
        ]
    )


class TestRelationScan:
    def test_scan(self, db):
        assert RelationScan("R", 2).evaluate(db) == rows((1, "a"), (2, "b"))

    def test_scan_missing_relation_empty(self, db):
        assert RelationScan("T", 1).evaluate(db) == frozenset()

    def test_width_and_relations(self):
        scan = RelationScan("R", 2)
        assert scan.width() == 2 and scan.relations() == {"R"}


class TestSelection:
    def test_filter(self, db):
        q = Selection(Comparison(Col(0), ">", 1), RelationScan("R", 2))
        assert q.evaluate(db) == rows((2, "b"))

    def test_none_condition_is_always(self, db):
        q = Selection(None, RelationScan("R", 2))
        assert len(q.evaluate(db)) == 2

    def test_fluent_select(self, db):
        q = RelationScan("R", 2).select(Comparison(Col(1), "=", "a"))
        assert q.evaluate(db) == rows((1, "a"))

    def test_uncompilable_condition_fails_loudly(self, db):
        # The compiler cannot key a Condition subclass it does not know;
        # evaluate raises instead of silently interpreting the tree.
        class FirstIsOne(Condition):
            def evaluate(self, row):
                return row[0].value == 1

        q = Selection(FirstIsOne(), RelationScan("R", 2))
        assert q.evaluate_boxed(db) == rows((1, "a"))
        with pytest.raises(PlanError, match="cannot plan Selection"):
            q.evaluate(db)


class TestProjection:
    def test_reorder_and_drop(self, db):
        q = Projection([1, 0], RelationScan("R", 2))
        assert q.evaluate(db) == rows(("a", 1), ("b", 2))

    def test_duplicate_columns(self, db):
        q = Projection([0, 0], RelationScan("R", 2))
        assert q.evaluate(db) == rows((1, 1), (2, 2))

    def test_literal_column(self, db):
        q = Projection([Constant("fixed"), 0], RelationScan("R", 2))
        assert q.evaluate(db) == rows(("fixed", 1), ("fixed", 2))

    def test_out_of_range(self):
        with pytest.raises(QueryError):
            Projection([2], RelationScan("R", 2))

    def test_projection_merges_rows(self):
        db = GlobalDatabase([fact("R", 1, "a"), fact("R", 1, "b")])
        q = Projection([0], RelationScan("R", 2))
        assert q.evaluate(db) == rows((1,))


class TestProductAndJoin:
    def test_product_width_and_rows(self, db):
        q = Product(RelationScan("R", 2), RelationScan("S", 2))
        result = q.evaluate(db)
        assert q.width() == 4 and len(result) == 4

    def test_join_on_column(self, db):
        q = join(RelationScan("R", 2), RelationScan("S", 2), [(1, 0)])
        assert q.evaluate(db) == rows((1, "a", "a", 10), (2, "b", "b", 20))

    def test_join_no_pairs_is_product(self, db):
        q = join(RelationScan("R", 2), RelationScan("S", 2), [])
        assert len(q.evaluate(db)) == 4

    def test_mul_operator(self, db):
        q = RelationScan("R", 2) * RelationScan("S", 2)
        assert len(q.evaluate(db)) == 4


class TestUnion:
    def test_union_rows(self, db):
        q = UnionNode(
            Projection([0], RelationScan("R", 2)),
            Projection([1], RelationScan("S", 2)),
        )
        assert q.evaluate(db) == rows((1,), (2,), (10,), (20,))

    def test_width_mismatch_rejected(self):
        with pytest.raises(QueryError):
            UnionNode(RelationScan("R", 2), RelationScan("S", 1))

    def test_or_operator(self, db):
        q = RelationScan("R", 2) | RelationScan("S", 2)
        assert len(q.evaluate(db)) == 4


class TestRowsToFacts:
    def test_conversion(self, db):
        facts = rows_to_facts(RelationScan("R", 2).evaluate(db), "ans")
        assert fact("ans", 1, "a") in facts
