"""CONSISTENCY of source collections (Section 3)."""

from repro.consistency.bounds import (
    canonical_domain,
    constant_bound,
    size_bound,
    verify_witness,
)
from repro.consistency.checker import (
    check_consistency,
    is_consistent,
)
from repro.consistency.identity import check_identity
from repro.consistency.parallel import (
    check_consistency_parallel,
    independent_groups,
)
from repro.consistency.result import ConsistencyResult

__all__ = [
    "ConsistencyResult",
    "check_consistency",
    "check_consistency_parallel",
    "check_identity",
    "independent_groups",
    "is_consistent",
    "size_bound",
    "constant_bound",
    "canonical_domain",
    "verify_witness",
]
