"""Unit tests for IFactSet: membership, algebra, relational index."""

from __future__ import annotations

import sys
import threading
from array import array

from repro.core import IFactSet, SymbolTable


def make_table():
    table = SymbolTable()
    r = table.relation("R")
    s = table.relation("S")
    fids_r = [table.fact(r, (table.constant(i),)) for i in range(5)]
    fids_s = [table.fact(s, (table.constant(i), table.constant(i))) for i in range(3)]
    return table, r, s, fids_r, fids_s


def test_membership_and_len():
    table, _, _, fids_r, fids_s = make_table()
    facts = IFactSet(table, fids_r[:3])
    assert len(facts) == 3
    assert fids_r[0] in facts
    assert fids_r[4] not in facts
    assert fids_s[0] not in facts or fids_s[0] in fids_r[:3]


def test_sorted_ids_is_a_sorted_int_array():
    table, _, _, fids_r, _ = make_table()
    facts = IFactSet(table, reversed(fids_r))
    ids = facts.sorted_ids()
    assert isinstance(ids, array)
    assert list(ids) == sorted(fids_r)
    assert list(facts) == sorted(fids_r)


def test_set_algebra():
    table, _, _, fids_r, _ = make_table()
    left = IFactSet(table, fids_r[:3])
    right = IFactSet(table, fids_r[2:])
    assert (left | right).ids() == frozenset(fids_r)
    assert (left & right).ids() == frozenset(fids_r[2:3])
    assert (left - right).ids() == frozenset(fids_r[:2])
    assert left.union(right) == left | right
    assert left.with_ids([fids_r[4]]).ids() == frozenset(fids_r[:3] + fids_r[4:])
    assert left.without_ids([fids_r[0]]).ids() == frozenset(fids_r[1:3])


def test_equality_and_hash_by_content():
    table, _, _, fids_r, _ = make_table()
    assert IFactSet(table, fids_r) == IFactSet(table, list(reversed(fids_r)))
    assert hash(IFactSet(table, fids_r)) == hash(IFactSet(table, fids_r))
    assert IFactSet(table, fids_r[:1]) <= IFactSet(table, fids_r)
    assert IFactSet(table, fids_r[:1]) < IFactSet(table, fids_r)


def test_by_relation_index():
    table, r, s, fids_r, fids_s = make_table()
    facts = IFactSet(table, fids_r[:2] + fids_s)
    assert facts.by_relation(r) == frozenset(fids_r[:2])
    assert facts.by_relation(s) == frozenset(fids_s)
    assert facts.by_relation(999) == frozenset()
    assert facts.relations() == tuple(sorted((r, s)))


def test_empty_factset():
    table = SymbolTable()
    empty = IFactSet(table)
    assert len(empty) == 0
    assert list(empty) == []
    assert empty.relations() == ()


def test_derived_state_is_built_once_per_set_and_kept_on_it():
    table, _, _, fids_r, _ = make_table()
    facts = IFactSet(table, fids_r)
    calls = []

    def build(fs):
        calls.append(fs)
        return object()

    assert facts.built(build) is None
    value = facts.derived(build)
    assert facts.derived(build) is value is facts.built(build)
    assert calls == [facts]
    # An equal set is another object and starts with nothing built.
    assert IFactSet(table, fids_r).built(build) is None


def test_racing_first_use_hands_every_thread_one_value():
    # More threads than cores and a short switch interval: a lost update
    # on first use would hand two threads different values.
    table, _, _, fids_r, _ = make_table()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            facts = IFactSet(table, fids_r)
            seen = []
            start = threading.Barrier(8)

            def build(fs):
                return object()

            def worker():
                start.wait(timeout=10)
                seen.append(facts.derived(build))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8
            assert len({id(v) for v in seen}) == 1
    finally:
        sys.setswitchinterval(interval)
