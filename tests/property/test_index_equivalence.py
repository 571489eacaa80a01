"""Property tests: column-index probes never change answers.

The plan executor reads a scan with constants from one bucket of a cached
column index, and a hash join whose build side is a scan probes that index
instead of materializing the scan. Random conjunctive queries exercise both
paths: constants in one or two argument positions, repeated variables,
heads that drop columns, and atoms that share no variable (cross
products). On random small databases every query must give exactly
``evaluate_naive``'s answers, cold and warm: with the optimizer on, on
the single store and through a :class:`~repro.shard.ShardExecutor` under a
random partition spec; with it off, as the shape's static plan run over
the single store.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence.engine.memo import LRUMemo
from repro.model import GlobalDatabase, fact
from repro.plan import (
    data_source_for,
    execute_plan,
    plan_for,
    plan_params,
    shared_plan_cache,
)
from repro.plan import evaluate as plan_evaluate
from repro.plan.executor import decode_answers
from repro.queries import evaluate_naive, parse_rule
from repro.shard import PartitionSpec, ShardedDatabase, ShardExecutor

ARITIES = {"E": 2, "F": 2, "T": 3}
VALUES = (1, 2, 3)
VARIABLES = ("x", "y", "z", "w")


@st.composite
def databases(draw):
    """Up to 14 facts over two binary relations and one ternary one."""
    rows = draw(
        st.sets(
            st.sampled_from(sorted(ARITIES)).flatmap(
                lambda r: st.tuples(
                    st.just(r),
                    *[st.sampled_from(VALUES)] * ARITIES[r],
                )
            ),
            max_size=14,
        )
    )
    return GlobalDatabase(fact(relation, *args) for relation, *args in rows)


@st.composite
def atoms(draw):
    """One body atom; zero, one or two of its positions hold constants."""
    relation = draw(st.sampled_from(sorted(ARITIES)))
    arity = ARITIES[relation]
    constant_at = draw(st.sets(st.integers(0, arity - 1), max_size=2))
    args = [
        str(draw(st.sampled_from(VALUES))) if i in constant_at
        else draw(st.sampled_from(VARIABLES))
        for i in range(arity)
    ]
    return relation, args


@st.composite
def queries(draw):
    """A safe CQ of 1–3 atoms whose head keeps some body variables."""
    body = draw(st.lists(atoms(), min_size=1, max_size=3))
    bound = sorted({a for _r, args in body for a in args if a in VARIABLES})
    head = draw(st.lists(st.sampled_from(bound), max_size=3)) if bound else []
    atoms_text = ", ".join(f"{r}({', '.join(args)})" for r, args in body)
    return f"ans({', '.join(head)}) <- {atoms_text}"


def partition_specs():
    return st.builds(
        PartitionSpec,
        st.integers(min_value=1, max_value=4),
        st.fixed_dictionaries(
            {},
            optional={r: st.integers(0, 2) for r in ARITIES},
        ),
        st.integers(min_value=0, max_value=2),
    )


def static_answers(query, database):
    """*query* through its shape's static plan (compiled without facts)."""
    plan = plan_for(query, cache=LRUMemo(maxsize=1))
    core = database.core()
    rows = execute_plan(
        plan, data_source_for(core), plan_params(query, plan.table)
    )
    return decode_answers(plan, rows)


@given(databases(), queries(), partition_specs())
@settings(max_examples=200, deadline=None)
def test_index_probes_match_naive(db, rule, spec):
    query = parse_rule(rule)
    expected = evaluate_naive(query, db)
    # Each mode starts cold: no cached plan, and a fresh fact set with no
    # index built.
    shared_plan_cache().clear()
    fresh = GlobalDatabase(db.facts())
    for _round in ("cold", "warm"):
        assert plan_evaluate(query, fresh) == expected, rule
    executor = ShardExecutor(ShardedDatabase(fresh, spec))
    for _round in ("cold", "warm"):
        assert executor.answer(query) == expected, rule
    fresh = GlobalDatabase(db.facts())
    for _round in ("cold", "warm"):
        assert static_answers(query, fresh) == expected, rule
