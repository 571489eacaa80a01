"""Executor tests: answers, data-source lifetimes, caches, boundaries."""

import re
import weakref

import pytest

from repro.algebra.ast import Product, Projection, RelationScan, Selection
from repro.algebra.conditions import Col, Comparison
from repro.model import GlobalDatabase, fact
from repro.model.terms import Constant
from repro.core import global_table
from repro.plan import (
    data_source_for,
    data_sources_built,
    evaluate,
    evaluate_rows,
    explain,
    explain_analyze,
    statistics_for,
)
from repro.queries import evaluate_naive, parse_rule

from tests.oracles import evaluate_backtracking


@pytest.fixture
def db():
    return GlobalDatabase(
        [
            fact("E", 1, 2),
            fact("E", 2, 3),
            fact("E", 3, 3),
            fact("F", 2, "x"),
            fact("F", 3, "y"),
        ]
    )


class TestAnswers:
    @pytest.mark.parametrize(
        "rule",
        [
            "ans(x, y) <- E(x, y)",
            "ans(x, z) <- E(x, y), F(y, z)",
            "ans(x) <- E(x, x)",
            "ans(y) <- E(1, y)",
            "ans(x, y) <- E(x, y), Lt(x, y)",
            "ans(z) <- E(x, y), E(y, z), Lt(x, z)",
            "ans() <- E(1, 2)",
            "ans() <- E(9, 9)",
        ],
    )
    def test_matches_both_oracles(self, db, rule):
        q = parse_rule(rule)
        expected = evaluate_naive(q, db)
        assert evaluate(q, db) == expected
        assert evaluate_backtracking(q, db) == expected

    def test_algebra_rows_match_boxed_interpreter(self, db):
        tree = Projection(
            (0, 3),
            Selection(
                Comparison(Col(1), "==", Col(2)),
                Product(RelationScan("E", 2), RelationScan("F", 2)),
            ),
        )
        assert evaluate_rows(tree, db) == tree.evaluate_boxed(db)

    def test_projection_constant_column(self, db):
        tree = Projection((Constant("tag"), 0), RelationScan("F", 2))
        rows = evaluate_rows(tree, db)
        assert rows == tree.evaluate_boxed(db)
        assert all(row[0] == Constant("tag") for row in rows)

    def test_empty_database(self):
        empty = GlobalDatabase([])
        q = parse_rule("ans(x, y) <- E(x, y)")
        assert evaluate(q, empty) == frozenset()


class TestDataSourceSharing:
    def test_equal_content_builds_its_own_source(self, db):
        # A source lives on its fact set: an equal-content twin is another
        # set and builds its own, while every lookup on one set shares one.
        twin = GlobalDatabase(list(db.facts()))
        built = data_sources_built()
        source_a = data_source_for(db.core())
        assert data_source_for(db.core()) is source_a
        source_b = data_source_for(twin.core())
        assert source_b is not source_a
        assert data_sources_built() - built == 2
        q = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        assert evaluate(q, twin) == evaluate(q, db)

    def test_scan_rows_cached_across_queries(self, db):
        evaluate(parse_rule("ans(x, y) <- E(x, y)"), db)
        source = data_source_for(db.core())
        scans_before, _ = source.cached_artifacts()
        evaluate(parse_rule("ans(a, b) <- E(a, b)"), db)
        scans_after, _ = source.cached_artifacts()
        assert scans_after == scans_before

    def test_join_index_memoized(self, db):
        q = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        evaluate(q, db)
        source = data_source_for(db.core())
        _, indexes_before = source.cached_artifacts()
        assert indexes_before >= 1
        evaluate(q, db)
        _, indexes_after = source.cached_artifacts()
        assert indexes_after == indexes_before

    def test_source_registry_is_bounded(self):
        # Nothing outside a fact set holds its source: sources of dropped
        # databases leave the heap with them, however many were built.
        refs = [
            weakref.ref(data_source_for(GlobalDatabase([fact("R", i)]).core()))
            for i in range(138)
        ]
        assert not any(ref() for ref in refs)

    def test_dropped_source_rebuilds_with_identical_answers(self):
        q = parse_rule("ans(x) <- R(x)")
        victim_db = GlobalDatabase([fact("R", 0)])
        answers_before = evaluate(q, victim_db)
        ref = weakref.ref(data_source_for(victim_db.core()))
        # A fresh fact set over the same interned IDs starts empty.
        victim_db = GlobalDatabase(list(victim_db.facts()))
        assert ref() is None
        assert evaluate(q, victim_db) == answers_before == frozenset(
            {fact("ans", 0)}
        )


def spy_on_relation(core, relation):
    """Record every pass over *relation*'s grouped tuples in *core*."""
    passes = []

    class Spied(tuple):
        def __iter__(self):
            passes.append(relation)
            return tuple.__iter__(self)

    grouped = core.grouped()
    rid = global_table().relation(relation)
    grouped[rid] = Spied(grouped[rid])
    return passes


class TestColumnIndexes:
    def test_first_sight_lookups_build_one_index(self):
        db = GlobalDatabase(
            fact("Lk", f"k{i % 50}", f"v{i}") for i in range(200)
        )
        core = db.core()
        statistics_for(core)  # profiled up front: it reads every tuple too
        passes = spy_on_relation(core, "Lk")
        for i in range(40):
            q = parse_rule(f"ans(v) <- Lk('k{i}', v)")
            assert evaluate(q, db) == evaluate_naive(q, db)
        source = data_source_for(core)
        assert source.cached_artifacts() == (40, 1)
        assert passes == ["Lk"]

    def test_warm_join_over_plain_scan_reads_no_tuples(self, db):
        q = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        expected = evaluate(q, db)
        source = data_source_for(db.core())
        built = source.cached_artifacts()
        assert built[1] == 1  # the build side's column index
        passes = spy_on_relation(db.core(), "E")
        passes += spy_on_relation(db.core(), "F")
        assert evaluate(q, db) == expected
        assert source.cached_artifacts() == built
        assert passes == []


def actual_counts(text):
    return [int(n) for n in re.findall(r"actual=(\d+)", text)]


class TestExplainAnalyzeActuals:
    """Probing a build-side scan through its column index reports the same
    per-operator actual row counts as materializing the scan: the expected
    counts were measured with every build-side scan materialized."""

    SMALL = GlobalDatabase(
        [fact("Ea", i % 7, i % 5) for i in range(30)]
        + [fact("Fa", i % 5, f"z{i % 4}") for i in range(12)]
        + [fact("Ga", "t", i % 7) for i in range(4)]
    )
    CHAIN = GlobalDatabase(
        [fact("Hub", f"k{i % 20}", f"z{i}") for i in range(1280)]
        + [fact("Spoke", f"x{i % 64}", f"k{i % 20}") for i in range(64)]
        + [fact("Leaf", f"x{j}", f"w{j}") for j in (3, 17)]
    )

    @pytest.mark.parametrize(
        "database, rule, actuals",
        [
            (SMALL, "ans(x, z) <- Ea(x, y), Fa(y, z)", [28, 72, 12, 30]),
            (SMALL, "ans(x) <- Ea(x, y), Fa(y, 'z1')", [7, 18, 3, 30]),
            (SMALL, "ans(x) <- Ea(x, x), Ga('t', x)", [4, 4, 4, 5]),
            (SMALL, "ans(x, w) <- Ga('t', x), Fa(w, 'z0')", [12, 12, 3, 4]),
            (
                SMALL, "ans(x, z) <- Ea(x, y), Ea(y, z), Fa(z, w)",
                [35, 312, 72, 12, 30, 30],
            ),
            (
                CHAIN, "ans(x, z) <- Hub(y, z), Spoke(x, y), Leaf(x, w)",
                [128, 128, 2, 2, 64, 1280],
            ),
            (CHAIN, "ans(x) <- Leaf(x, w), Spoke(x, 'k3')", [1, 1, 2, 4]),
        ],
    )
    def test_actual_row_counts(self, database, rule, actuals):
        text = explain_analyze(parse_rule(rule), database)
        assert actual_counts(text) == actuals


class TestExplain:
    def test_explain_is_stable_text(self, db):
        q = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        assert explain(q) == explain(q)
        assert "hash-join" in explain(q)
