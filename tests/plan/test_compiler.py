"""Compiler tests: canonical keys, operator shapes, pushdown, errors."""

import pytest

from repro.algebra.ast import (
    AlgebraQuery,
    Product,
    Projection,
    RelationScan,
    Selection,
    UnionNode,
)
from repro.algebra.conditions import And, Col, Comparison, Not, Or
from repro.confidence.engine.memo import LRUMemo
from repro.core.symbols import SymbolTable, global_table
from repro.model.terms import Constant
from repro.plan import (
    PlanError,
    compile_query,
    plan_for,
    plan_key,
    plan_params,
    shared_plan_cache,
)
from repro.plan.ir import (
    FilterNode,
    HashJoinNode,
    ProjectNode,
    ScanNode,
    UnionPlanNode,
    UnitNode,
)
from repro.queries import parse_rule


@pytest.fixture
def table():
    return SymbolTable()


class TestCanonicalKeys:
    def test_alpha_renaming_shares_a_key(self, table):
        q1 = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        q2 = parse_rule("ans(a, c) <- E(a, b), F(b, c)")
        assert plan_key(q1, table) == plan_key(q2, table)

    def test_different_constants_differ(self, table):
        # Head and builtin constants are compiled into the plan, so they
        # stay in the key as values.
        q1 = parse_rule("ans(y, 1) <- E(x, y)")
        q2 = parse_rule("ans(y, 2) <- E(x, y)")
        assert plan_key(q1, table) != plan_key(q2, table)
        q3 = parse_rule("ans(y) <- E(x, y), Lt(y, 1)")
        q4 = parse_rule("ans(y) <- E(x, y), Lt(y, 2)")
        assert plan_key(q3, table) != plan_key(q4, table)

    def test_body_constants_become_parameters(self, table):
        q1 = parse_rule("ans(y) <- E(1, y)")
        q2 = parse_rule("ans(y) <- E('a', y)")
        assert plan_key(q1, table) == plan_key(q2, table)
        assert plan_params(q1, table) == (table.constant(1),)
        assert plan_params(q2, table) == (table.constant("a"),)
        # A constant is not a variable: E(1, y) and E(x, y) differ.
        assert plan_key(q1, table) != plan_key(
            parse_rule("ans(y) <- E(x, y)"), table
        )

    def test_key_names_no_symbol_ids(self, table):
        query = parse_rule("ans(y) <- E(1, y)")
        assert plan_key(query, table) == plan_key(query, SymbolTable())
        assert table.counts().constants == 0

    def test_body_order_is_part_of_the_written_form(self, table):
        # Canonicalization quotients *renaming*, not body permutation; the
        # stable join order makes permuted bodies compile to the same plan
        # shape anyway, but their keys are honest about the written query.
        q1 = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        q2 = parse_rule("ans(x, z) <- F(y, z), E(x, y)")
        assert plan_key(q1, table) != plan_key(q2, table)

    def test_head_variable_order_matters(self, table):
        q1 = parse_rule("ans(x, y) <- E(x, y)")
        q2 = parse_rule("ans(y, x) <- E(x, y)")
        assert plan_key(q1, table) != plan_key(q2, table)

    def test_builtin_query_key_carries_registry_token(self, table):
        plain = parse_rule("ans(x, y) <- E(x, y)")
        builtin = parse_rule("ans(x, y) <- E(x, y), Lt(x, y)")
        assert plan_key(plain, table)[-1] == 0
        assert plan_key(builtin, table)[-1] != 0

    def test_algebra_key_distinguishes_shapes(self, table):
        scan = RelationScan("E", 2)
        assert plan_key(scan, table) != plan_key(RelationScan("E", 3), table)
        assert plan_key(Projection((0,), scan), table) != plan_key(scan, table)

    def test_unknown_algebra_subclass_raises(self, table):
        class Weird(AlgebraQuery):
            def evaluate_boxed(self, database):
                return frozenset()

            def width(self):
                return 0

            def relations(self):
                return set()

        with pytest.raises(PlanError):
            plan_key(Weird(), table)


class TestCompiledShapes:
    def test_single_atom_is_scan_then_project(self, table):
        plan = compile_query(parse_rule("ans(x, y) <- E(x, y)"), table)
        assert type(plan.root) is ProjectNode
        assert type(plan.root.child) is ScanNode

    def test_join_uses_hash_join(self, table):
        plan = compile_query(parse_rule("ans(x, z) <- E(x, y), F(y, z)"), table)
        join = plan.root.child
        assert type(join) is HashJoinNode
        assert join.left_keys and join.right_keys

    def test_constants_push_into_the_scan(self, table):
        plan = compile_query(parse_rule("ans(y) <- E(1, y)"), table)
        scan = plan.root.child
        assert type(scan) is ScanNode
        # Position 0 reads parameter slot 0, which each call binds.
        assert scan.const_eq == ((0, ~0),)
        assert plan.param_count == 1
        bound = (table.constant(1),)
        assert scan.bind(bound) == ((0, table.constant(1)),)
        assert "[arg0 = 1]" in plan.explain(params=bound)
        assert "[arg0 = $0]" in plan.explain()

    def test_repeated_variable_pushes_dup_eq(self, table):
        plan = compile_query(parse_rule("ans(x) <- E(x, x)"), table)
        scan = plan.root.child
        assert type(scan) is ScanNode
        assert scan.dup_eq == ((0, 1),)
        assert scan.output == (0,)

    def test_builtin_becomes_a_filter_at_the_bound_point(self, table):
        plan = compile_query(
            parse_rule("ans(x, y) <- E(x, y), Lt(x, y)"), table
        )
        assert type(plan.root.child) is FilterNode

    def test_ground_builtin_becomes_a_prefilter(self, table):
        plan = compile_query(parse_rule("ans() <- Lt(1, 2)"), table)
        assert plan.prefilters
        assert type(plan.root) is ProjectNode
        assert type(plan.root.child) is UnitNode

    def test_head_constant_projects_a_literal(self, table):
        plan = compile_query(parse_rule("ans(x, 7) <- E(x, y)"), table)
        columns = plan.root.columns
        assert not isinstance(columns[1], int)
        assert columns[1].cid == table.constant(7)

    def test_algebra_cross_leaf_equality_becomes_a_join(self, table):
        tree = Selection(
            Comparison(Col(1), "==", Col(2)),
            Product(RelationScan("E", 2), RelationScan("F", 2)),
        )
        plan = compile_query(tree, table)
        assert type(plan.root) is HashJoinNode

    def test_algebra_union_flattens(self, table):
        tree = UnionNode(
            UnionNode(RelationScan("E", 2), RelationScan("F", 2)),
            RelationScan("G", 2),
        )
        plan = compile_query(tree, table)
        assert type(plan.root) is UnionPlanNode
        assert len(plan.root.children) == 3

    def test_or_and_not_compile_as_boxed_filters(self, table):
        tree = Selection(
            Or(
                Comparison(Col(0), "==", Constant(1)),
                Not(Comparison(Col(1), ">", Constant(2))),
            ),
            RelationScan("E", 2),
        )
        plan = compile_query(tree, table)
        assert type(plan.root) is FilterNode

    def test_explain_renders_every_operator(self, table):
        plan = compile_query(
            parse_rule("ans(x, z) <- E(x, y), F(y, z), Lt(x, z)"), table
        )
        text = plan.explain()
        for fragment in ("plan [cq]", "project", "filter", "hash-join", "scan"):
            assert fragment in text


class TestPlanCache:
    def test_alpha_renamings_hit_one_entry(self, table):
        cache = LRUMemo(maxsize=8)
        q1 = parse_rule("ans(x, z) <- E(x, y), F(y, z)")
        q2 = parse_rule("ans(p, r) <- E(p, q), F(q, r)")
        p1 = plan_for(q1, cache=cache, table=table)
        p2 = plan_for(q2, cache=cache, table=table)
        assert p1 is p2
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_distinct_queries_miss(self, table):
        cache = LRUMemo(maxsize=8)
        plan_for(parse_rule("ans(x) <- E(x, y)"), cache=cache, table=table)
        plan_for(parse_rule("ans(y) <- E(x, y)"), cache=cache, table=table)
        assert cache.stats().misses == 2

    def test_constant_variants_hit_one_entry(self, table):
        cache = LRUMemo(maxsize=8)
        p1 = plan_for(parse_rule("ans(v) <- E('k1', v)"), cache=cache, table=table)
        p2 = plan_for(parse_rule("ans(v) <- E('k2', v)"), cache=cache, table=table)
        assert p1 is p2
        assert len(cache) == 1 and cache.stats().hits == 1

    def test_a_hit_comes_from_the_callers_table(self):
        # The shared cache serves plans to every symbol table; an entry
        # compiled against another table is recompiled, never served.
        shared_plan_cache().clear()
        shared = plan_for(parse_rule("ans(x) <- R(x)"))
        ids = global_table()
        private = SymbolTable()
        # Give the private table the global IDs of ans and R, with S at R's.
        wanted = {ids.relation("ans"): "ans", ids.relation("R"): "S"}
        for rid in range(max(wanted) + 1):
            private.relation(wanted.get(rid, f"pad{rid}"))
        plan = plan_for(parse_rule("ans(x) <- S(x)"), table=private)
        assert plan is not shared
        assert plan.table is private
        assert plan.scan_nodes[0].relation == "S"
        again = plan_for(parse_rule("ans(x) <- R(x)"), table=private)
        assert again is not shared and again.table is private
        assert again.scan_nodes[0].rid == private.relation("R")
