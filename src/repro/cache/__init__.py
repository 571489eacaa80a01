"""``repro.cache`` — the unified, memory-budgeted cache runtime.

The two caches whose keys outlive any one database — the engine memo and
the plan cache — are :class:`~repro.cache.runtime.LRUMemo` instances
enrolled in the process-wide :class:`~repro.cache.runtime.CacheRegistry`
returned by :func:`cache_registry`. The registry gives them:

* a **global byte budget** (``--cache-budget-mb``) with weighted
  least-recently-used eviction across caches, and
* one uniform **stats tree** (``stats()["cache"]``).

State derived from one database lives on its fact set instead
(:meth:`repro.core.factset.IFactSet.derived`) and is freed with it. See
``docs/caching.md`` for the full design.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.runtime import (
    DEFAULT_CACHE_SIZE,
    CacheRegistry,
    CacheStats,
    LRUMemo,
    default_sizeof,
    sizeof_estimate,
)

_REGISTRY = CacheRegistry()


def cache_registry() -> CacheRegistry:
    """The process-wide cache registry every shared cache enrolls in."""
    return _REGISTRY


def set_cache_budget_mb(budget_mb: Optional[float]) -> None:
    """Set (or clear, with ``None``) the global cache budget in MiB.

    The CLI's ``--cache-budget-mb`` lands here; fractional budgets are
    fine (``0.25`` = 256 KiB), and ``0`` means "evict everything evictable"
    — useful in tests that pin worst-case behavior.
    """
    if budget_mb is None:
        _REGISTRY.set_budget(None)
    else:
        if budget_mb < 0:
            raise ValueError("--cache-budget-mb must be >= 0")
        _REGISTRY.set_budget(int(budget_mb * 1024 * 1024))


__all__ = [
    "CacheRegistry",
    "CacheStats",
    "DEFAULT_CACHE_SIZE",
    "LRUMemo",
    "cache_registry",
    "default_sizeof",
    "set_cache_budget_mb",
    "sizeof_estimate",
]
