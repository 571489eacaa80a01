"""Tests for repro.model.database."""

import pytest

from repro.exceptions import NotGroundError
from repro.model.atoms import Atom, atom, fact
from repro.model.database import EMPTY_DATABASE, GlobalDatabase
from repro.model.terms import Constant, Variable


class TestConstruction:
    def test_deduplicates(self):
        db = GlobalDatabase([fact("R", 1), fact("R", 1)])
        assert len(db) == 1

    def test_rejects_non_ground(self):
        with pytest.raises(NotGroundError):
            GlobalDatabase([atom("R", Variable("x"))])

    def test_empty(self):
        assert len(EMPTY_DATABASE) == 0
        assert list(EMPTY_DATABASE.relations()) == []


class TestSetSemantics:
    def test_equality_independent_of_order(self):
        a = GlobalDatabase([fact("R", 1), fact("R", 2)])
        b = GlobalDatabase([fact("R", 2), fact("R", 1)])
        assert a == b and hash(a) == hash(b)

    def test_containment_operators(self):
        small = GlobalDatabase([fact("R", 1)])
        big = GlobalDatabase([fact("R", 1), fact("R", 2)])
        assert small <= big and small < big
        assert not big <= small

    def test_membership(self):
        db = GlobalDatabase([fact("R", 1)])
        assert fact("R", 1) in db and fact("R", 2) not in db

    def test_usable_as_set_member(self):
        worlds = {GlobalDatabase([fact("R", 1)]), GlobalDatabase([fact("R", 1)])}
        assert len(worlds) == 1


class TestAccess:
    def test_extension(self, small_db):
        assert len(small_db.extension("R")) == 3
        assert len(small_db.extension("S")) == 2
        assert small_db.extension("Missing") == frozenset()

    def test_relations_sorted(self, small_db):
        assert small_db.relations() == ("R", "S")

    def test_tuples(self, small_db):
        assert (1, 2) in small_db.tuples("R")
        assert (2, "x") in small_db.tuples("S")

    def test_constants(self):
        db = GlobalDatabase([fact("R", 1, "a")])
        assert db.constants() == {Constant(1), Constant("a")}

    def test_schema(self, small_db):
        schema = small_db.schema()
        assert schema.arity("R") == 2 and schema.arity("S") == 2


class TestCombinators:
    def test_union_intersection_difference(self):
        a = GlobalDatabase([fact("R", 1), fact("R", 2)])
        b = GlobalDatabase([fact("R", 2), fact("R", 3)])
        assert len(a.union(b)) == 3
        assert a.intersection(b) == GlobalDatabase([fact("R", 2)])
        assert a.difference(b) == GlobalDatabase([fact("R", 1)])

    def test_with_without_facts(self):
        db = GlobalDatabase([fact("R", 1)])
        assert len(db.with_facts([fact("R", 2)])) == 2
        assert len(db.without_facts([fact("R", 1)])) == 0
        # originals untouched (immutability)
        assert len(db) == 1

    def test_restrict_to(self, small_db):
        only_r = small_db.restrict_to(["R"])
        assert only_r.relations() == ("R",) and len(only_r) == 3


class TestDerivedVersions:
    """``with_facts`` / ``without_facts`` derive the next version from its
    parent, interning only the facts they add."""

    def test_with_facts_rejects_non_ground(self):
        db = GlobalDatabase([fact("R", 1)])
        for built in (False, True):
            if built:
                db.core()
            with pytest.raises(NotGroundError):
                db.with_facts([fact("R", 2), atom("R", Variable("x"))])

    def test_a_write_that_changes_nothing_returns_the_parent(self):
        db = GlobalDatabase([fact("R", 1)])
        assert db.with_facts([fact("R", 1)]) is db
        assert db.without_facts([fact("R", 2)]) is db

    def test_removing_absent_facts_interns_nothing(self):
        from repro.core import global_table

        db = GlobalDatabase([fact("Rm", "kept", 1), fact("Rm", "gone", 2)])
        db.core()
        table = global_table()
        before = table.counts()
        child = db.without_facts(
            [fact("Rm", "gone", 2), fact("Rm", "never-stored", 3),
             fact("Never-stored", 1)]
        )
        assert table.counts() == before
        assert child == GlobalDatabase([fact("Rm", "kept", 1)])
        assert child.core() == GlobalDatabase(child.facts()).core()
        assert table.find_constant("never-stored") is None
