"""Property tests: a derived database version equals a fresh build.

``GlobalDatabase.with_facts`` and ``without_facts`` derive the next version
from its parent: the fact set, the per-relation index and, once the
parent's core is built, the interned core with whichever relational views
the parent built. On small multi-relation databases (one relation at two
arities) and random writes (a relation emptied by a removal, a relation
new to the database, removals of absent facts, additions of present ones),
applied in both orders and with the parent's core unbuilt, built, or built
with its views, every version must equal the database built from scratch
from the expected facts: as a set and a hash, per relation, as an
interned core with its views, in its statistics, and in the answers of a
few conjunctive queries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import global_table
from repro.core.adapters import to_core_database
from repro.model import GlobalDatabase, fact
from repro.plan import evaluate as plan_evaluate
from repro.plan import statistics_for
from repro.plan.statistics import TableStatistics
from repro.queries import evaluate_naive, parse_rule

#: Relation name -> arities it is used at. ``Nw`` appears only in writes.
ARITIES = {"Ed": (1, 2), "Fd": (2,), "Td": (3,), "Nw": (1,)}
VALUES = (1, 2, 3)

QUERIES = [
    parse_rule(rule)
    for rule in (
        "ans(x, z) <- Ed(x, y), Fd(y, z)",
        "ans(x, y) <- Ed(x), Td(x, y, z)",
        "ans(y) <- Ed(1, y)",
        "ans(x) <- Nw(x), Ed(x)",
        "ans(z) <- Td(x, 2, z), Fd(z, x)",
    )
]


@st.composite
def facts(draw, relations):
    relation = draw(st.sampled_from(relations))
    arity = draw(st.sampled_from(ARITIES[relation]))
    return fact(relation, *(draw(st.sampled_from(VALUES)) for _ in range(arity)))


@st.composite
def writes(draw):
    """A base database and one write: ``(base, removed, added)``."""
    base = draw(st.sets(facts(("Ed", "Fd", "Td")), max_size=14))
    ordered = sorted(base)
    present = draw(st.sets(st.sampled_from(ordered))) if ordered else set()
    emptied = draw(st.sampled_from(("Ed", "Fd", "Td", None)))
    removed = (
        present
        | {f for f in base if f.relation == emptied}
        | draw(st.sets(facts(("Ed", "Fd", "Td")), max_size=4))
    )
    kept = draw(st.sets(st.sampled_from(ordered))) if ordered else set()
    added = kept | draw(st.sets(facts(tuple(ARITIES)), max_size=6))
    return frozenset(base), frozenset(removed), frozenset(added)


def grouped_sets(core):
    return {rid: set(rows) for rid, rows in core.grouped().items()}


def assert_fresh(version, expected):
    """*version* equals the database built from scratch over *expected*."""
    fresh = GlobalDatabase(expected)
    assert version == fresh and hash(version) == hash(fresh)
    assert version.relations() == fresh.relations()
    for relation in ARITIES:
        assert version.extension(relation) == fresh.extension(relation)
    table = global_table()
    core = version.core()
    fresh_core = to_core_database(table, fresh)
    assert core.ids() == fresh_core.ids()
    assert core.relations() == fresh_core.relations()
    assert grouped_sets(core) == grouped_sets(fresh_core)
    for rid in set(core.relations()) | {table.relation(r) for r in ARITIES}:
        assert core.by_relation(rid) == fresh_core.by_relation(rid)
    derived = statistics_for(core)
    profiled = TableStatistics.profile(fresh_core)
    assert derived.total_facts == profiled.total_facts
    assert derived.relations.keys() == profiled.relations.keys()
    for rid, stats in profiled.relations.items():
        mine = derived.relations[rid]
        assert mine.cardinality == stats.cardinality
        assert [c.distinct for c in mine.columns] == [
            c.distinct for c in stats.columns
        ]
    for query in QUERIES:
        assert plan_evaluate(query, version) == evaluate_naive(query, fresh)


@given(writes(), st.sampled_from(("none", "core", "views")), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_derived_version_equals_a_fresh_build(write, built, remove_first):
    base, removed, added = write
    parent = GlobalDatabase(base)
    if built != "none":
        core = parent.core()
        if built == "views":
            statistics_for(core)  # the grouped view
            core.relations()  # the per-relation index
    if remove_first:
        middle = parent.without_facts(removed)
        child = middle.with_facts(added)
        expected_middle, expected = base - removed, (base - removed) | added
    else:
        middle = parent.with_facts(added)
        child = middle.without_facts(removed)
        expected_middle, expected = base | added, (base | added) - removed
    assert_fresh(child, expected)
    assert_fresh(middle, expected_middle)
    assert_fresh(parent, base)
