"""Probabilistic query-answering semantics (Section 5)."""

from repro.confidence.answers import (
    QueryAnswer,
    answer_query,
    certain_answer,
    certain_answer_lower_bound,
    estimate_answer_confidences,
    possible_answer,
    query_confidence,
)
from repro.confidence.base_facts import (
    anonymous_fact_confidence,
    certain_facts,
    covered_fact_confidences,
    enumeration_confidences,
    fact_confidence,
    plausible_facts,
)
from repro.confidence.blocks import BlockCounter, IdentityInstance, SignatureBlock
from repro.confidence.engine import (
    ConfidenceEngine,
    EngineStats,
    LRUMemo,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    shared_memo,
)
from repro.confidence.exact_calculus import ExactCalculus, event_probability
from repro.confidence.linear_system import GammaSystem, Inequality
from repro.confidence.montecarlo import WorldSampler, rejection_sample_worlds
from repro.confidence.query_conf import (
    base_confidences_from_facts,
    oplus,
    propagate,
    propagate_facts,
)
from repro.confidence.statistics import (
    answer_cardinality_bounds,
    expected_answer_cardinality,
    expected_base_size,
    world_size_distribution,
)
from repro.confidence.worlds import (
    count_possible_worlds,
    fact_space,
    is_consistent_over,
    possible_worlds,
    possible_worlds_identity,
)

__all__ = [
    "IdentityInstance",
    "SignatureBlock",
    "BlockCounter",
    "ConfidenceEngine",
    "EngineStats",
    "LRUMemo",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "shared_memo",
    "ExactCalculus",
    "event_probability",
    "GammaSystem",
    "Inequality",
    "WorldSampler",
    "rejection_sample_worlds",
    "possible_worlds",
    "possible_worlds_identity",
    "count_possible_worlds",
    "is_consistent_over",
    "fact_space",
    "fact_confidence",
    "covered_fact_confidences",
    "anonymous_fact_confidence",
    "enumeration_confidences",
    "certain_facts",
    "plausible_facts",
    "QueryAnswer",
    "answer_query",
    "certain_answer",
    "possible_answer",
    "query_confidence",
    "estimate_answer_confidences",
    "certain_answer_lower_bound",
    "oplus",
    "propagate",
    "propagate_facts",
    "base_confidences_from_facts",
    "expected_base_size",
    "world_size_distribution",
    "expected_answer_cardinality",
    "answer_cardinality_bounds",
]
