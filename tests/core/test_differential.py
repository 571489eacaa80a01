"""Differential tests: interned fast paths vs preserved boxed baselines.

Each test runs the same workload through the interned implementation and
through the boxed reference (``tests/oracles/``) and asserts exact
agreement — verdicts, witnesses, decompositions, and admits decisions.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core import global_table, to_core_collection, to_core_database
from repro.confidence.blocks import IdentityInstance
from repro.confidence.engine import kernel
from repro.consistency.checker import check_consistency
from repro.model import Atom, GlobalDatabase, Variable, fact
from repro.queries import identity_view
from repro.queries.conjunctive import ConjunctiveQuery
from repro.sources import SourceCollection, SourceDescriptor

from tests.conftest import example51_domain, make_example51_collection
from tests.oracles import boxed_signature_decomposition, check_consistency_boxed
from tests.property.strategies import identity_collections, unary_databases

DOMAIN = ["a", "b", "c", "d", "e"]


def general_collection(n_ext=1, sat=True):
    """E4c's join-view family (joins force the generic search): decided by
    the canonical freeze, or unsatisfiable under exact bounds plus an empty
    source demanding P = ∅."""
    x, y = Variable("x"), Variable("y")
    v1 = ConjunctiveQuery(Atom("V1", (x,)), [Atom("R", (x, y))])
    v2 = ConjunctiveQuery(Atom("V2", (x, y)), [Atom("R", (x, y)), Atom("P", (y,))])
    bounds = ("1/2", "1/2") if sat else (Fraction(1), Fraction(1))
    sources = [
        SourceDescriptor(
            v1, [fact("V1", f"a{i}") for i in range(n_ext)], *bounds, name="S1"
        ),
        SourceDescriptor(
            v2, [fact("V2", f"a{i}", f"b{i}") for i in range(n_ext)],
            *bounds, name="S2",
        ),
    ]
    if not sat:
        sources.append(
            SourceDescriptor(
                ConjunctiveQuery(Atom("V3", (x,)), [Atom("P", (x,))]),
                [], Fraction(1), Fraction(1), name="S3",
            )
        )
    return SourceCollection(sources)


def assert_agree(collection, **caps):
    interned = check_consistency(collection, **caps)
    boxed = check_consistency_boxed(collection, **caps)
    assert interned.consistent == boxed.consistent
    assert interned.decisive == boxed.decisive
    assert interned.method == boxed.method
    assert interned.combinations_tried == boxed.combinations_tried
    if interned.consistent:
        assert interned.witness == boxed.witness
    return interned


class TestConsistencyAgreement:
    def test_satisfiable_general_collection(self):
        result = assert_agree(general_collection())
        assert result.consistent

    def test_unsatisfiable_general_collection(self):
        result = assert_agree(general_collection(sat=False))
        assert not result.consistent

    def test_truncation_points_match(self):
        # Starving the quotient cap must truncate both searches identically.
        result = assert_agree(general_collection(), max_quotients=3)
        interned = check_consistency(general_collection(), max_quotients=3)
        assert interned.method in {"canonical-freeze", "truncated", "exhausted",
                                   "quotient-search"}
        assert interned.method == result.method

    @settings(deadline=None, max_examples=25)
    @given(identity_collections())
    def test_identity_collections_agree(self, collection):
        assert_agree(collection)


class TestDecompositionAgreement:
    @settings(deadline=None, max_examples=50)
    @given(identity_collections())
    def test_blocks_match_boxed_reference(self, collection):
        interned = IdentityInstance(collection, DOMAIN)
        boxed = boxed_signature_decomposition(collection, DOMAIN)
        assert interned.relation == boxed.relation
        assert interned.anonymous_size == boxed.anonymous_size
        assert tuple(
            (tuple(sorted(b.signature)), b.facts) for b in interned.blocks
        ) == boxed.blocks
        assert tuple(interned.extensions) == boxed.extensions

    def test_domain_violation_message_matches_boxed(self):
        collection = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1),
                    [fact("V1", "zz")],
                    "1/2",
                    "1/2",
                    name="S1",
                )
            ]
        )
        from repro.exceptions import SourceError

        with pytest.raises(SourceError) as interned:
            IdentityInstance(collection, ["a", "b"])
        with pytest.raises(SourceError) as boxed:
            boxed_signature_decomposition(collection, ["a", "b"])
        assert str(interned.value) == str(boxed.value)


class TestAdmitsAgreement:
    @settings(deadline=None, max_examples=50)
    @given(identity_collections(), unary_databases())
    def test_core_admits_agrees_with_boxed(self, collection, database):
        table = global_table()
        core = to_core_collection(table, collection)
        assert core.admits(to_core_database(table, database)) == (
            collection.admits(database)
        )

    @settings(deadline=None, max_examples=25)
    @given(identity_collections(), unary_databases())
    def test_core_measures_agree(self, collection, database):
        table = global_table()
        core = to_core_collection(table, collection)
        facts = to_core_database(table, database)
        for boxed_source, core_source in zip(collection, core):
            assert core_source.completeness(facts) == (
                boxed_source.completeness(database)
            )
            assert core_source.soundness(facts) == (
                boxed_source.soundness(database)
            )


class TestInstancePickling:
    def test_instance_roundtrips_and_rebuilds_id_caches(self):
        collection = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1),
                    [fact("V1", "a"), fact("V1", "b")],
                    "1/2",
                    "1/2",
                    name="S1",
                ),
                SourceDescriptor(
                    identity_view("V2", "R", 1),
                    [fact("V2", "b"), fact("V2", "c")],
                    "1/2",
                    "1/2",
                    name="S2",
                ),
            ]
        )
        instance = IdentityInstance(collection, DOMAIN)
        instance.block_of(fact("R", "a"))  # populate the ID caches
        clone = pickle.loads(pickle.dumps(instance))
        assert clone.extension_sizes == instance.extension_sizes
        assert [b.facts for b in clone.blocks] == [
            b.facts for b in instance.blocks
        ]
        assert clone.extensions == instance.extensions
        for value in ("a", "b", "c", "d"):
            probe = fact("R", value)
            assert clone.block_of(probe) == instance.block_of(probe)
            assert clone.in_fact_space(probe) == instance.in_fact_space(probe)

    def test_tableau_and_database_pickle_without_core_caches(self):
        from repro.tableaux.tableau import Tableau

        database = GlobalDatabase([fact("R", "a"), fact("R", "b")])
        tableau = Tableau([Atom("R", (Variable("x"),))])
        assert tableau.embeds_in(database)  # populate both core caches
        database_clone = pickle.loads(pickle.dumps(database))
        tableau_clone = pickle.loads(pickle.dumps(tableau))
        assert database_clone == database
        assert tableau_clone == tableau
        assert tableau_clone.embeds_in(database_clone)


# -- E17's workloads ------------------------------------------------------------
# The checks the retired E17 benchmark ran before timing, on its own inputs.

def block_confidences(spec):
    """One E1c pass: solve the denominator and every block's numerator."""
    denominator = kernel.solve(kernel.reduce_spec(spec))[0]
    return [
        Fraction(kernel.solve(kernel.reduce_spec(spec, forced={j: 1}))[0], denominator)
        for j in range(spec.n_blocks)
    ]


class TestE17Workloads:
    @pytest.mark.parametrize("m", [1, 200])
    def test_block_confidences_agree_with_boxed_decomposition(self, m):
        collection = make_example51_collection()
        domain = example51_domain(m)
        interned = block_confidences(
            kernel.spec_of(IdentityInstance(collection, domain))
        )
        boxed = boxed_signature_decomposition(collection, domain)
        boxed_spec = kernel.CountingSpec(
            signatures=tuple(sig for sig, _ in boxed.blocks),
            sizes=tuple(len(facts) for _, facts in boxed.blocks),
            min_sound=tuple(s.min_sound_count() for s in collection),
            completeness=tuple(s.completeness_bound for s in collection),
            anonymous_size=boxed.anonymous_size,
        )
        assert interned == block_confidences(boxed_spec)
        if m == 1:  # Example 5.1: blocks {a}, {c} at 4/7 and {b} at 6/7
            assert sorted(interned) == [
                Fraction(4, 7), Fraction(4, 7), Fraction(6, 7)
            ]

    @pytest.mark.parametrize(
        "n_ext, sat, method",
        [(3, True, "canonical-freeze"), (2, False, "exhausted")],
    )
    def test_join_collections_get_the_boxed_verdict(self, n_ext, sat, method):
        result = assert_agree(general_collection(n_ext, sat), max_quotients=20000)
        assert (result.consistent, result.method) == (sat, method)

    def test_wire_roundtrip_returns_its_input(self):
        instance = IdentityInstance(make_example51_collection(), example51_domain(200))
        spec = kernel.spec_of(instance)
        problems = [kernel.reduce_spec(spec)] + [
            kernel.reduce_spec(spec, forced={j: 1}) for j in range(spec.n_blocks)
        ]
        for problem in problems:
            wire = kernel.to_wire(problem)
            assert kernel.from_wire(pickle.loads(pickle.dumps(wire))) == problem
        assert kernel.from_wire(kernel.to_wire(None)) is None
