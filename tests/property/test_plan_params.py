"""Property tests: one plan per query shape, bound per call.

Conjunctive queries that differ only in the constants of their relational
body atoms share one cache key and one compiled plan, whose parameter
slots each call binds to its own query's constants. Random shapes with one
or two constant slots are bound several ways — values present in the
database, a value absent from it, one value in both slots (of one atom or
of two) — and every binding must give exactly ``evaluate_naive``'s
answers, cold and warm: through the cost-based production path on the
single store and through a :class:`~repro.shard.ShardExecutor`, and
through the shape's static plan on the single store and over the
executor's fragments (a ``plan_for`` with facts replaces a cached static
plan, so the static plan is run directly). EXPLAIN and EXPLAIN ANALYZE of
a later binding render that binding's own header line and constants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence.engine.memo import LRUMemo
from repro.model import GlobalDatabase, fact
from repro.plan import (
    data_source_for,
    execute_plan,
    explain,
    explain_analyze,
    plan_for,
    plan_params,
    shared_plan_cache,
)
from repro.plan import evaluate as plan_evaluate
from repro.plan.executor import decode_answers
from repro.queries import evaluate_naive, parse_rule
from repro.shard import (
    ShardedDatabase,
    ShardExecutor,
    merge_answer_sets,
    plan_shards,
)

from tests.property.test_index_equivalence import (
    ARITIES,
    VARIABLES,
    databases,
    partition_specs,
)

#: A constant no generated database holds.
ABSENT = 99


@st.composite
def shapes(draw):
    """A safe CQ template of 1–3 atoms with one or two ``{}`` constant
    slots, in one atom or in two; returns ``(template, slot count)``."""
    body = [
        draw(st.sampled_from(sorted(ARITIES)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    cells = [(i, p) for i, r in enumerate(body) for p in range(ARITIES[r])]
    slots = draw(st.sets(st.sampled_from(cells), min_size=1, max_size=2))
    args = [
        [
            "{}" if (i, p) in slots else draw(st.sampled_from(VARIABLES))
            for p in range(ARITIES[r])
        ]
        for i, r in enumerate(body)
    ]
    bound = sorted({a for row in args for a in row if a in VARIABLES})
    head = draw(st.lists(st.sampled_from(bound), max_size=3)) if bound else []
    atoms = ", ".join(f"{r}({', '.join(row)})" for r, row in zip(body, args))
    return f"ans({', '.join(head)}) <- {atoms}", len(slots)


def bindings(db, slots):
    """Present values, an absent one, and one value in every slot."""
    present = sorted({c.value for f in db.facts() for c in f.args}) or [1]
    low, high = present[0], present[-1]
    out = [(low,) * slots, (ABSENT,) + (high,) * (slots - 1), (high,) * slots]
    if slots == 2:
        out.append((low, high))
    return out


def static_answers(plan, query, facts):
    """*query* through the shape's static *plan* over one fact set, bound
    to the query's constants."""
    rows = execute_plan(
        plan, data_source_for(facts), plan_params(query, plan.table)
    )
    return decode_answers(plan, rows)


def static_sharded_answers(plan, query, sharded):
    """The same over every fragment the shard planner picks, merged."""
    fragments = plan_shards(query, sharded).fragments
    return merge_answer_sets(
        static_answers(plan, query, facts) for _index, facts in fragments
    )


@given(databases(), shapes(), partition_specs())
@settings(max_examples=120, deadline=None)
def test_bindings_share_one_plan_and_match_naive(db, shape, spec):
    template, slots = shape
    queries = [parse_rule(template.format(*b)) for b in bindings(db, slots)]

    cache = LRUMemo(maxsize=8)
    plans = [plan_for(query, cache=cache) for query in queries]
    assert all(plan is plans[0] for plan in plans), template
    assert len(cache) == 1

    shared_plan_cache().clear()
    fresh = GlobalDatabase(db.facts())
    executor = ShardExecutor(ShardedDatabase(fresh, spec))
    static = GlobalDatabase(db.facts())
    static_shards = ShardedDatabase(static, spec)
    for query in queries:
        expected = evaluate_naive(query, db)
        for _round in ("cold", "warm"):
            assert plan_evaluate(query, fresh) == expected, query
            assert executor.answer(query) == expected, query
            assert static_answers(plans[0], query, static.core()) == expected
            assert static_sharded_answers(
                plans[0], query, static_shards
            ) == expected, query
    assert len(shared_plan_cache()) == 1

    later = queries[1]
    values = [c.value for atom in later.body for c in atom.constants()]
    for text in (explain(later), explain_analyze(later, fresh)):
        assert text.splitlines()[0] == f"plan [cq] for: {later}"
        for value in values:
            assert f"= {value!r}]" in text, text


def test_a_thousand_first_sight_lookups_leave_one_plan():
    database = GlobalDatabase(
        fact("Lk", f"k{i % 500}", f"v{i}") for i in range(2000)
    )
    cache = shared_plan_cache()
    cache.clear()
    before = cache.stats()
    for i in range(1000):  # keys k500 and up are absent
        query = parse_rule(f"ans(v) <- Lk('k{i}', v)")
        expected = {fact("ans", f"v{j}") for j in range(i, 2000, 500) if i < 500}
        assert plan_evaluate(query, database) == expected
    after = cache.stats()
    assert len(cache) == 1
    assert after.misses - before.misses == 1
    assert after.evictions == before.evictions
