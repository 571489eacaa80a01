"""Parallel, memoized confidence engine (see ``docs/performance.md``).

Layering, bottom up:

* :mod:`~repro.confidence.engine.kernel` — the pure counting DP over plain
  data (``CountingSpec`` / ``ReducedProblem``); the unit of work.
* :mod:`~repro.confidence.engine.memo` — canonical keys for alpha-equivalent
  counting problems and the shared LRU cache.
* :mod:`~repro.confidence.engine.executors` — serial and process-pool
  task execution behind one ``map`` interface (Monte-Carlo chunks).
* :mod:`~repro.confidence.engine.stats` — stage timers and work counters.
* :mod:`~repro.confidence.engine.core` — :class:`ConfidenceEngine`, tying
  the layers together.
"""

from repro.confidence.engine.core import (
    DEFAULT_SAMPLES_PER_CHUNK,
    ConfidenceEngine,
)
from repro.confidence.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    available_cpus,
    make_executor,
)
from repro.confidence.engine.kernel import (
    CountingSpec,
    ReducedProblem,
    count_worlds,
    reduce_spec,
    solve,
    spec_of,
)
from repro.confidence.engine.memo import (
    DEFAULT_CACHE_SIZE,
    CacheStats,
    LRUMemo,
    canonical_key,
    shared_memo,
)
from repro.confidence.engine.stats import EngineStats, StageStats

__all__ = [
    "ConfidenceEngine",
    "DEFAULT_SAMPLES_PER_CHUNK",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "available_cpus",
    "CountingSpec",
    "ReducedProblem",
    "spec_of",
    "reduce_spec",
    "solve",
    "count_worlds",
    "LRUMemo",
    "CacheStats",
    "canonical_key",
    "shared_memo",
    "DEFAULT_CACHE_SIZE",
    "EngineStats",
    "StageStats",
]
