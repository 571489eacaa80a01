"""Property tests for Theorem 4.1 over random identity collections.

Random *general-view* collections blow up the enumeration quickly, so the
property sweep uses identity collections over a small shared domain (the
deterministic tests in tests/tableaux cover hand-picked general views).
"""

from itertools import combinations

from hypothesis import given, settings

from repro.model import GlobalDatabase, fact
from repro.tableaux import direct_possible_worlds, template_possible_worlds
from repro.tableaux.construction import templates_for_collection

from tests.property.strategies import identity_collections

DOMAIN = ["a", "b", "c", "d"]

#: Every database over the 4-fact space R(a), ..., R(d).
DATABASES = [
    GlobalDatabase(facts)
    for size in range(len(DOMAIN) + 1)
    for facts in combinations([fact("R", v) for v in DOMAIN], size)
]

#: The exhaustive definition visits |D|^rows embeddings of a constraint, so
#: the comparison covers constraints of up to 6 rows (4^6 per database).
MAX_ROWS = 6


@given(identity_collections(max_sources=2, values=DOMAIN[:3]))
@settings(max_examples=25, deadline=None)
def test_theorem41(collection):
    direct = direct_possible_worlds(collection, DOMAIN)
    via_templates = template_possible_worlds(collection, DOMAIN)
    assert direct == via_templates


@given(identity_collections(max_sources=2, values=DOMAIN[:3]))
@settings(max_examples=25, deadline=None)
def test_satisfied_by_matches_the_exhaustive_definition(collection):
    """The pruned constraint search agrees with the literal definition:
    D satisfies (U, Θ) iff no embedding of U into D violates every θ."""
    for _combination, template in templates_for_collection(collection):
        for constraint in template.constraints:
            if len(constraint.tableau) > MAX_ROWS:
                continue
            for database in DATABASES:
                violation = next(constraint.violating_embeddings(database), None)
                assert constraint.satisfied_by(database) == (violation is None)
