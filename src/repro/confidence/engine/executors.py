"""Task executors: serial, and one process pool.

An executor is anything with an ordered ``map(fn, items)`` — the caller is
indifferent to *where* tasks run, which is what makes serial-vs-parallel
equivalence testable: the task list and the aggregation order are fixed
before the executor sees them, so every executor returns the same results
in the same order, only the wall clock differs.

* :class:`SerialExecutor` — in-process, zero overhead, the reference.
* :class:`ProcessExecutor` — a ``multiprocessing.Pool``, one task per IPC
  round-trip. Its two callers hand it few heavy tasks: Monte-Carlo sample
  chunks (:meth:`~repro.confidence.engine.ConfidenceEngine.estimate_confidences`)
  and independent source groups
  (:func:`~repro.consistency.parallel.check_consistency_parallel`).

``ProcessExecutor`` degrades to serial execution (recording
``degraded=True``) when worker processes cannot be created — sandboxes,
restricted containers — rather than failing the computation.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class SerialExecutor:
    """Run tasks in-process, in order. The reference executor."""

    name = "serial"

    def __init__(self):
        self.workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessExecutor:
    """A lazily created ``multiprocessing.Pool``; one task per dispatch.

    *fn* and every item must be picklable. The pool persists across
    ``map`` calls until :meth:`close`.
    """

    name = "process"

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError("ProcessExecutor needs at least 2 workers")
        self.workers = workers
        self._pool = None
        self.degraded = False

    def _ensure_pool(self):
        if self._pool is None and not self.degraded:
            try:
                self._pool = multiprocessing.get_context().Pool(self.workers)
            except (OSError, ValueError):
                # No permission to spawn processes here: stay correct,
                # lose the parallelism.
                self.degraded = True
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        pool = self._ensure_pool()
        if pool is None:
            return [fn(item) for item in items]
        return pool.map(fn, items, chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_executor(workers: int):
    """Executor factory: ``workers <= 1`` is serial, else a process pool."""
    if workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
