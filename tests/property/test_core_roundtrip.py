"""Property tests for the interned core boundary (repro.core).

Two families:

* **Round-trips** — ``from_core(to_core(x)) == x`` exactly, for terms,
  atoms, databases, views, sources, and whole collections. The boundary is
  lossless, so the boxed API can delegate to ID space freely.
* **Memo-key agreement** — the interned :func:`canonical_key` and the boxed
  :func:`canonical_key_boxed` induce the *same partition* of counting
  problems: two problems (drawn from random collections, including source
  permutations of one another) get equal int keys iff they get equal boxed
  keys. Hit/miss behavior of the engine memo is therefore unchanged by the
  re-encoding.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    from_core_atom,
    from_core_collection,
    from_core_database,
    from_core_source,
    from_core_term,
    from_core_view,
    global_table,
    to_core_atom,
    to_core_collection,
    to_core_database,
    to_core_source,
    to_core_term,
    to_core_view,
)
from repro.confidence.blocks import IdentityInstance
from repro.confidence.engine import kernel
from repro.confidence.engine.memo import canonical_key
from repro.model import Atom, Constant, GlobalDatabase, Variable, fact
from repro.queries.conjunctive import ConjunctiveQuery
from repro.sources import SourceCollection

from tests.oracles import canonical_key_boxed
from tests.property.strategies import (
    binary_databases,
    identity_collections,
    unary_databases,
)

constants = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["a", "b", "c", ""]),
    st.booleans(),
)

terms = st.one_of(
    constants.map(Constant),
    st.sampled_from(["x", "y", "z"]).map(Variable),
)

atoms = st.builds(
    Atom,
    st.sampled_from(["R", "S", "T"]),
    st.lists(terms, min_size=0, max_size=3).map(tuple),
)


@given(terms)
def test_term_roundtrip(term):
    table = global_table()
    assert from_core_term(table, to_core_term(table, term)) == term


@given(atoms)
def test_atom_roundtrip(atom):
    table = global_table()
    assert from_core_atom(table, to_core_atom(table, atom)) == atom


@given(atoms, atoms)
def test_interned_equality_mirrors_boxed(left, right):
    table = global_table()
    same_boxed = left == right
    same_core = to_core_atom(table, left) is to_core_atom(table, right)
    assert same_boxed == same_core


@given(st.one_of(unary_databases(), binary_databases()))
def test_database_roundtrip(database):
    table = global_table()
    core = to_core_database(table, database)
    back = from_core_database(table, core)
    assert back == database
    assert len(core) == len(database)


@given(identity_collections())
def test_view_and_source_roundtrip(collection):
    table = global_table()
    for source in collection:
        core_view = to_core_view(table, source.view)
        assert from_core_view(table, core_view) == source.view
        core_source = to_core_source(table, source)
        back = from_core_source(table, core_source)
        assert back == source
        assert back.name == source.name


@given(identity_collections())
def test_collection_roundtrip(collection):
    table = global_table()
    back = from_core_collection(table, to_core_collection(table, collection))
    assert list(back) == list(collection)
    assert [s.name for s in back] == [s.name for s in collection]


def test_builtin_views_stay_boxed():
    from repro.exceptions import SourceError
    from repro.queries.builtins import default_registry

    x = Variable("x")
    query = ConjunctiveQuery(
        Atom("Q", (x,)),
        [Atom("R", (x,)), Atom("Lt", (x, Constant(5)))],
        builtins=default_registry(),
    )
    with pytest.raises(SourceError):
        to_core_view(global_table(), query)


@given(st.one_of(unary_databases(), binary_databases()))
def test_view_apply_agrees_with_boxed(database):
    """CoreView.apply == ConjunctiveQuery.apply, tuple for tuple."""
    table = global_table()
    relations = database.relations()
    if not relations:
        return
    relation = relations[0]
    arity = next(iter(database.extension(relation))).arity
    variables = [Variable(f"x{i}") for i in range(arity)]
    query = ConjunctiveQuery(Atom("Q", variables), [Atom(relation, variables)])
    boxed = {
        tuple(c.value for c in answer.args) for answer in query.apply(database)
    }
    core = to_core_view(table, query).apply(database.core())
    interned = {
        tuple(table.constant_value(c) for c in answer) for answer in core
    }
    assert interned == boxed


# -- memo-key agreement -------------------------------------------------------


def _problems_of(collection, domain):
    """Denominator + one forced-block problem per block, as the engine plans."""
    instance = IdentityInstance(collection, domain)
    spec = kernel.spec_of(instance)
    problems = [kernel.reduce_spec(spec)]
    for j, block in enumerate(instance.blocks):
        if block.facts:
            problems.append(kernel.reduce_spec(spec, forced={j: 1}))
    return [p for p in problems if p is not None]


@settings(deadline=None)
@given(identity_collections(), identity_collections(), st.permutations(range(3)))
def test_memo_keys_agree_with_boxed(left, right, order):
    """Equal int keys iff equal boxed keys — across two random collections
    and a source permutation of the first (alpha-equivalent by construction).
    """
    domain = ["a", "b", "c", "d", "e"]
    permuted = SourceCollection(
        [list(left)[i] for i in order if i < len(left)]
        + list(left)[3:]
    )
    problems = (
        _problems_of(left, domain)
        + _problems_of(right, domain)
        + _problems_of(permuted, domain)
    )
    for p in problems:
        for q in problems:
            assert (canonical_key(p)[0] == canonical_key(q)[0]) == (
                canonical_key_boxed(p) == canonical_key_boxed(q)
            )


@given(identity_collections())
def test_permuted_sources_share_keys(collection):
    """A source permutation yields identical int keys problem-for-problem."""
    domain = ["a", "b", "c", "d", "e"]
    reversed_collection = SourceCollection(list(collection)[::-1])
    keys = sorted(
        canonical_key(p)[0] for p in _problems_of(collection, domain)
    )
    permuted_keys = sorted(
        canonical_key(p)[0] for p in _problems_of(reversed_collection, domain)
    )
    assert keys == permuted_keys
