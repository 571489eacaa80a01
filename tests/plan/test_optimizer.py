"""The cost-based optimizer: ordering, feedback, re-optimization, EXPLAIN."""

from repro.confidence.engine.memo import LRUMemo
from repro.core import global_table
from repro.model import GlobalDatabase, fact
from repro.plan import (
    compile_query,
    data_source_for,
    execute_plan,
    explain,
    explain_analyze,
    plan_for,
    plan_params,
    reset_optimizer_stats,
    shared_plan_cache,
    statistics_for,
)
from repro.plan.analyze import analyze_plan
from repro.plan.optimizer import (
    MAX_REOPTS_PER_PLAN,
    REOPT_MIN_ROWS,
    REOPT_RATIO,
    PlanFeedback,
    optimizer_stats,
    q_error,
)
from repro.queries import parse_rule

from tests.oracles import evaluate_backtracking


def skewed_database(big=200, small=4):
    return GlobalDatabase(
        [fact("Big", f"k{i % 10}", f"z{i}") for i in range(big)]
        + [fact("Small", f"x{i}", f"k{i}") for i in range(small)]
    )


def chain_world(m):
    """E19's skewed chain: each of m // 200 join keys has 200 ``Big`` rows."""
    keys = max(1, m // 200)
    return GlobalDatabase(
        [fact("Big", f"k{i % keys}", f"z{i}") for i in range(m)]
        + [fact("Mid", f"x{i % 1000}", f"k{i % keys}") for i in range(m // 10)]
        + [fact("Tiny", f"x{i * 97 % 1000}", f"w{i}") for i in range(10)]
    )


def answers(plan, source, table):
    constant_value = table.constant_value
    return {
        tuple(constant_value(c) for c in row)
        for row in execute_plan(plan, source)
    }


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(100, 10) == q_error(10, 100)

    def test_missing_estimate_is_neutral(self):
        assert q_error(None, 10**6) == 1.0


class TestFeedback:
    def test_small_results_never_flip_stale(self):
        feedback = PlanFeedback()
        feedback.record(1, REOPT_MIN_ROWS - 1)
        assert not feedback.stale

    def test_large_misestimate_flips_stale(self):
        feedback = PlanFeedback()
        q = feedback.record(1, 1000)
        assert q > REOPT_RATIO
        assert feedback.stale
        assert feedback.max_q_error == q

    def test_accurate_estimates_stay_fresh(self):
        feedback = PlanFeedback()
        feedback.record(1000, 900)
        assert not feedback.stale

    def test_reopt_cap_pins_the_plan(self):
        feedback = PlanFeedback(reopt_count=MAX_REOPTS_PER_PLAN)
        feedback.record(1, 1000)
        assert not feedback.stale


class TestJoinOrder:
    def setup_method(self):
        reset_optimizer_stats()

    def test_optimizer_scans_the_small_relation_first(self):
        database = skewed_database()
        core = database.core()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        assert plan.optimizer_info is not None
        assert plan.optimizer_info.startswith("dp join order")
        assert plan.scan_nodes[0].relation == "Small"

    def test_static_compile_keeps_the_syntactic_order(self):
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table())
        assert plan.optimizer_info is None
        assert plan.feedback is None
        assert plan.scan_nodes[0].relation == "Big"

    def test_single_atom_queries_skip_optimization(self):
        core = GlobalDatabase([fact("R", "a")]).core()
        query = parse_rule("ans(x) <- R(x)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        assert plan.optimizer_info is None

    def test_optimized_plan_matches_static_answers(self):
        database = skewed_database()
        core = database.core()
        table = global_table()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        static = compile_query(query, table)
        optimized = compile_query(query, table, stats=statistics_for(core))
        source = data_source_for(core)
        expected = {
            tuple(c.value for c in a.args)
            for a in evaluate_backtracking(query, database)
        }
        assert answers(static, source, table) == expected
        assert answers(optimized, source, table) == expected

    def test_three_way_chain_reorders_without_changing_answers(self):
        database = chain_world(400)  # E19's check, at a small m
        core = database.core()
        table = global_table()
        query = parse_rule("ans(x, z) <- Big(y, z), Mid(x, y), Tiny(x, w)")
        static = compile_query(query, table)
        optimized = compile_query(query, table, stats=statistics_for(core))
        assert static.scan_nodes[0].relation == "Big"
        assert optimized.scan_nodes[0].relation == "Tiny"
        source = data_source_for(core)
        expected = {
            tuple(c.value for c in a.args)
            for a in evaluate_backtracking(query, database)
        }
        assert expected
        assert answers(static, source, table) == expected
        assert answers(optimized, source, table) == expected

    def test_explain_carries_estimates(self):
        database = skewed_database()
        text = explain(
            parse_rule("ans(x, z) <- Big(y, z), Small(x, y)"),
            database=database,
        )
        assert "optimizer: dp join order" in text
        assert "est=" in text
        assert "scan Small" in text

    def test_static_explain_does_not_pin_a_static_plan(self):
        # `answer --explain` renders the static plan before any database
        # exists; a later lookup with facts must still get the cost-based
        # plan, not the static one the EXPLAIN cached.
        shared_plan_cache().clear()
        database = skewed_database(big=2000, small=2)
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        assert "optimizer:" not in explain(query)
        plan = plan_for(query, facts=database.core())
        assert plan.optimizer_info.startswith("dp join order over 2 atoms")
        assert plan.scan_nodes[0].relation == "Small"
        text = explain_analyze(query, database)
        scans = [line.split()[1] for line in text.splitlines()
                 if line.lstrip().startswith("scan ")]
        assert scans[0] == "Small/2"
        assert "est=" in text

    def test_parameters_are_priced_at_mean_frequency(self):
        # 'k0' holds 190 of Hot's 200 rows, yet a parameter slot is priced
        # at cardinality / distinct, whichever constant compiled the plan.
        database = GlobalDatabase(
            [fact("Hot", "k0", f"z{i}") for i in range(190)]
            + [fact("Hot", f"k{i}", f"z{i}") for i in range(1, 11)]
            + [fact("Cold", f"z{i}") for i in range(40)]
        )
        core = database.core()
        table = global_table()
        for key in ("k0", "k5"):
            query = parse_rule(f"ans(z) <- Hot('{key}', z), Cold(z)")
            plan = compile_query(query, table, stats=statistics_for(core))
            hot = next(s for s in plan.scan_nodes if s.relation == "Hot")
            assert hot.est_rows == 200 / 11
            expected = {(a.args[0].value,) for a in evaluate_backtracking(query, database)}
            rows = execute_plan(
                plan, data_source_for(core), plan_params(query, table)
            )
            assert {(table.constant_value(r[0]),) for r in rows} == expected


class TestReoptimization:
    def setup_method(self):
        reset_optimizer_stats()

    def make_worlds(self):
        misleading = GlobalDatabase(
            [fact("Big", "k0", "z0")]
            + [fact("Small", f"x{i}", f"k{i % 2}") for i in range(40)]
        )
        actual = skewed_database(big=400, small=4)
        return misleading, actual

    def test_stale_plan_is_reoptimized_on_next_hit(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        assert misled.scan_nodes[0].relation == "Big"

        source = data_source_for(actual.core())
        execute_plan(misled, source)
        assert misled.feedback.stale

        adapted = plan_for(query, cache=cache, facts=actual.core())
        assert adapted is not misled
        assert adapted.feedback.reopt_count == 1
        assert "reopt #1" in adapted.optimizer_info
        assert adapted.scan_nodes[0].relation == "Small"
        assert optimizer_stats()["reoptimizations"] == 1

    def test_reoptimization_uses_observed_cardinalities(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        source = data_source_for(actual.core())
        expected = execute_plan(misled, source)
        adapted = plan_for(query, cache=cache, facts=actual.core())
        # The re-optimized plan answers identically and its estimates are
        # now exact for the world that triggered the feedback.
        assert execute_plan(adapted, source) == expected
        assert adapted.feedback.max_q_error == 1.0

    def test_fresh_plan_without_facts_is_not_reoptimized(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        execute_plan(misled, data_source_for(actual.core()))
        assert misled.feedback.stale
        # No facts on the cache hit: nothing to re-profile against, the
        # stale plan is served as-is.
        assert plan_for(query, cache=cache) is misled


class TestExplainAnalyze:
    def setup_method(self):
        reset_optimizer_stats()

    def test_analyze_matches_execution(self):
        database = skewed_database()
        core = database.core()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        source = data_source_for(core)
        rows, actuals = analyze_plan(plan, source)
        assert rows == execute_plan(plan, source)
        assert actuals[id(plan.root)] == len(rows)

    def test_explain_analyze_renders_actuals(self):
        database = skewed_database()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        text = explain_analyze(query, database)
        assert "actual=" in text
        assert "answers:" in text
        assert "max q-error:" in text
