"""The trusted fact constructor agrees with the validating one.

:meth:`Atom.from_constants` is what every ID-to-boxed decoder builds
answers with; it skips validation and the groundness scan, so it must be
indistinguishable from ``Atom(...)`` on any relation name and any tuple of
constants.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Atom, Constant

relation_names = st.text(
    alphabet="RSTabc_0123456789", min_size=1, max_size=6
)

scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(max_size=5),
    st.fractions(max_denominator=12),
)

values = st.one_of(scalars, st.tuples(scalars, scalars))

facts = st.tuples(
    relation_names, st.lists(values, max_size=4).map(tuple)
)


def both(relation, raw):
    constants = tuple(Constant(v) for v in raw)
    return Atom.from_constants(relation, constants), Atom(relation, constants)


@given(facts, facts)
@settings(max_examples=300, deadline=None)
def test_from_constants_matches_atom(first, second):
    trusted, checked = both(*first)
    other_trusted, other_checked = both(*second)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert trusted.is_ground() and checked.is_ground()
    assert trusted.variables() == checked.variables() == frozenset()
    assert trusted.constants() == checked.constants()
    assert repr(trusted) == repr(checked) and str(trusted) == str(checked)
    assert trusted.arity == checked.arity
    assert (trusted == other_trusted) == (checked == other_checked)
    assert (trusted < other_trusted) == (checked < other_checked)
    assert (trusted < other_checked) == (checked < other_trusted)
    assert {trusted, other_trusted} == {checked, other_checked}
