"""Conjunctive queries: representation, evaluation, parsing, containment."""

from repro.queries.builtins import (
    EMPTY_REGISTRY,
    Builtin,
    BuiltinRegistry,
    default_registry,
)
from repro.queries.conjunctive import (
    ANSWER_RELATION,
    ConjunctiveQuery,
    answer_query,
    identity_view,
)
from repro.queries.containment import (
    freeze,
    homomorphisms,
    is_contained_in,
    is_equivalent,
    minimize,
)
from repro.queries.evaluation import (
    derives,
    evaluate,
    evaluate_naive,
    order_body,
    supporting_valuation,
    valuations,
)
from repro.queries.parser import (
    parse_atom,
    parse_fact,
    parse_program,
    parse_rule,
)

__all__ = [
    "Builtin",
    "BuiltinRegistry",
    "default_registry",
    "EMPTY_REGISTRY",
    "ConjunctiveQuery",
    "identity_view",
    "answer_query",
    "ANSWER_RELATION",
    "evaluate",
    "evaluate_naive",
    "order_body",
    "valuations",
    "derives",
    "supporting_valuation",
    "parse_atom",
    "parse_fact",
    "parse_rule",
    "parse_program",
    "freeze",
    "homomorphisms",
    "is_contained_in",
    "is_equivalent",
    "minimize",
]
