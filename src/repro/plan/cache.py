"""The canonical-form plan cache.

Compiled plans are pure functions of the query's *canonical form* — the
query-shape key rendered by :mod:`repro.plan.compiler` — so one cache
entry serves every variable-renaming of a query and, for a conjunctive
query, every variant of its relational body constants (each call binds
its own). The cache itself is an
:class:`~repro.cache.runtime.LRUMemo` from the unified cache runtime,
enrolled in the process-wide registry as ``"plan.plans"`` — under the
global byte budget; its stats surface in ``repro.cli --stats`` JSON, the
registry's ``stats()["cache"]`` tree, and the mediator service's snapshot.

A compiled plan depends only on the query's canonical form (plus optimizer
feedback, handled by recompile-on-staleness in the compiler), never on any
particular world, so its keys outlive every database and registry diffs
have nothing to retire here.
"""

from __future__ import annotations

from typing import Dict

from repro.cache import cache_registry
from repro.cache.runtime import CacheStats, LRUMemo

#: Default capacity of the shared plan cache. Plans are tiny (a handful of
#: nodes), so the bound exists to cap pathological query-generation loops,
#: not memory in normal use.
DEFAULT_PLAN_CACHE_SIZE = 1024

_SHARED_PLANS = cache_registry().enroll(
    LRUMemo(maxsize=DEFAULT_PLAN_CACHE_SIZE, name="plan.plans")
)


def shared_plan_cache() -> LRUMemo:
    """The process-wide plan cache used by every query path by default."""
    return _SHARED_PLANS


def plan_cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the shared plan cache."""
    return _SHARED_PLANS.stats()


def plan_cache_stats_dict() -> Dict[str, object]:
    """The same counters as a JSON-serializable dict (for ``--stats``)."""
    stats = plan_cache_stats()
    out: Dict[str, object] = dict(stats._asdict())
    out["hit_rate"] = stats.hit_rate
    return out
