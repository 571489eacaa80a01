"""Unit tests for the symbol table: interning, namespaces, publication."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.core import IAtom, IFactSet, SymbolTable, global_table
from repro.exceptions import ModelError
from repro.model import Constant


def test_constant_interning_is_idempotent():
    table = SymbolTable()
    assert table.constant("a") == table.constant("a")
    assert table.constant("a") != table.constant("b")
    assert table.constant("a") >= 0


def test_constant_equality_mirrors_boxed_semantics():
    # Constant(1) == Constant(True) == Constant(1.0) in the boxed model
    # (Python value equality); interning collides identically.
    table = SymbolTable()
    assert table.constant(1) == table.constant(True)
    assert table.constant(1) == table.constant(1.0)
    assert table.constant(0) != table.constant("")


def test_unhashable_constant_raises():
    table = SymbolTable()
    with pytest.raises(ModelError):
        table.constant(["not", "hashable"])


def test_variable_ids_are_negative_and_disjoint():
    table = SymbolTable()
    x = table.variable("x")
    assert x < 0
    assert table.variable("x") == x
    assert table.variable("y") != x
    # Same spelling in both namespaces never collides: sign discriminates.
    assert table.constant("x") >= 0
    assert table.variable_name(x) == "x"
    with pytest.raises(ModelError):
        table.variable("")


def test_fact_interning_and_reverse_lookup():
    table = SymbolTable()
    r = table.relation("R")
    a, b = table.constant("a"), table.constant("b")
    fid = table.fact(r, (a, b))
    assert table.fact(r, (a, b)) == fid
    assert table.fact_tuple(fid) == (r, a, b)
    assert table.fact_relation(fid) == r
    assert table.fact_args(fid) == (a, b)
    assert table.fact(r, (b, a)) != fid


def test_fact_rejects_variable_ids():
    table = SymbolTable()
    r = table.relation("R")
    x = table.variable("x")
    with pytest.raises(ModelError):
        table.fact(r, (x,))


def test_iatoms_are_hash_consed():
    table = SymbolTable()
    r = table.relation("R")
    x = table.variable("x")
    a = table.constant("a")
    atom = table.iatom(r, (x, a))
    assert table.iatom(r, (x, a)) is atom
    assert isinstance(atom, IAtom)
    assert not atom.ground
    assert table.iatom(r, (a, a)).ground
    assert atom.variable_ids() == (x,)
    assert atom.constant_ids() == (a,)


def test_find_lookups_do_not_grow():
    table = SymbolTable()
    before = table.counts()
    assert table.find_constant("nope") is None
    assert table.find_relation("nope") is None
    assert table.find_fact(0, (0,)) is None
    assert table.find_constant(["unhashable"]) is None
    assert table.counts() == before


def test_each_constant_has_one_shared_term():
    table = SymbolTable()
    a = table.constant("a")
    one = table.constant(1)
    assert table.constant_term(a) == Constant("a")
    assert table.constant_term(a) is table.constant_term(table.constant("a"))
    # Equal values share an ID, so True decodes to the first-interned 1.
    assert table.constant_term(table.constant(True)) is table.constant_term(one)


class _PublishProbe(dict):
    """A lookup dict that resolves every ID at the moment it is published."""

    def __init__(self, resolve):
        super().__init__()
        self.resolve = resolve
        self.resolved = []

    def __setitem__(self, key, ident):
        try:
            self.resolved.append(self.resolve(ident))
        except IndexError:
            self.resolved.append(IndexError)
        super().__setitem__(key, ident)


@pytest.mark.parametrize("namespace", ["constant", "variable", "relation", "fact"])
def test_ids_are_published_after_their_reverse_entry(namespace):
    """A lock-free reader that sees a new ID can always resolve it."""
    table = SymbolTable()
    rid = table.relation("R")
    cid = table.constant("a")
    if namespace == "constant":
        probe = table._constants = _PublishProbe(
            lambda c: (table.constant_value(c), table.constant_term(c))
        )
        table.constant("b")
        expected = [("b", Constant("b"))]
    elif namespace == "variable":
        probe = table._variables = _PublishProbe(table.variable_name)
        table.variable("x")
        expected = ["x"]
    elif namespace == "relation":
        probe = table._relations = _PublishProbe(table.relation_name)
        table.relation("S")
        expected = ["S"]
    else:
        probe = table._facts = _PublishProbe(table.fact_tuple)
        table.fact(rid, (cid,))
        expected = [(rid, cid)]
    assert probe.resolved == expected


def test_concurrent_interning_and_decoding_agree():
    """Threads intern and decode at once: every ID a thread sees resolves,
    and every decode returns its own constant's term."""
    table = SymbolTable()
    errors = []

    def work(worker):
        neighbour = (worker + 1) % 4
        try:
            for i in range(300):
                seen = [((worker, i), table.constant((worker, i)))]
                seen.append(((neighbour, i), table.find_constant((neighbour, i))))
                for value, cid in seen:
                    if cid is not None and table.constant_term(cid) != Constant(value):
                        errors.append((cid, value))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for w in range(4):
        for i in range(300):
            assert table.constant_term(table.constant((w, i))) == Constant((w, i))


def test_global_table_is_shared():
    assert global_table() is global_table()


def test_factset_pickles_by_value_not_by_table():
    table = global_table()
    r = table.relation("R_pickle")
    fid = table.fact(r, (table.constant("pkl"),))
    facts = IFactSet(table, {fid})
    # The table holds an RLock: shipping raw IDs across processes is a bug
    # by design, so IFactSet must refuse (or at minimum the table must).
    with pytest.raises(Exception):
        pickle.dumps(facts)
