"""Traced runs: spans around ``repro``'s layer entry points, from outside.

:func:`install` replaces each entry point in :data:`TARGETS` with a wrapper
that records a span — name, start, end, parent — in a :class:`SpanLog`.
The wrapper is installed on the attribute callers look up at call time: a
class attribute for methods, and the module global a caller resolves when
it runs (``kernel.solve_wire`` is read off the kernel module, the lazy
``from repro.plan import evaluate`` reads the package attribute, and so
on). Parents are linked through a :class:`contextvars.ContextVar`, so spans
opened inside an asyncio task nest under the span that was current when
the task was created.

Spans are kept in flat arrays (a traced ``worlds`` run records several
hundred thousand) and written out at the end of the run.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name). The span name's prefix
#: before the first dot is the layer the span is charged to.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.service.server", "MediatorService", "submit", "service.submit"),
    ("repro.service.server", "MediatorService", "update_source",
     "registry.update_source"),
    ("repro.resilience.manager", "ResilienceManager", "resolve",
     "resilience.resolve"),
    ("repro.cache.runtime", "CacheRegistry", "invalidate_tags",
     "cache.invalidate_tags"),
    ("repro.confidence.engine.core", "ConfidenceEngine", "confidences",
     "engine.confidences"),
    ("repro.confidence.engine.core", "ConfidenceEngine", "confidence",
     "engine.confidence"),
    ("repro.confidence.engine.core", "ConfidenceEngine", "joint_confidence",
     "engine.joint_confidence"),
    ("repro.confidence.engine.kernel", None, "solve_wire",
     "engine.solve_wire"),
    ("repro.confidence.engine.core", None, "canonical_key",
     "engine.canonical_key"),
    ("repro.confidence.blocks", "IdentityInstance", "__init__",
     "blocks.instance"),
    ("repro.confidence.answers", None, "possible_worlds", "worlds.next"),
    ("repro.sources.collection", "SourceCollection", "admits",
     "sources.admits"),
    ("repro.plan", None, "evaluate", "plan.evaluate"),
    ("repro.plan.compiler", None, "plan_for", "plan.plan_for"),
    ("repro.plan.executor", None, "execute_plan", "plan.execute_plan"),
    ("repro.plan.statistics", None, "statistics_for",
     "plan.statistics_for"),
    ("repro.shard.executor", "ShardExecutor", "answer", "shard.answer"),
)

class SpanLog:
    """Spans in parallel arrays: name id, start, end, parent index (-1)."""

    def __init__(self):
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> Tuple[int, contextvars.Token]:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current.get())
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index, self.current.set(index)

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.end[index] = time.perf_counter()
        self.current.reset(token)

    def wrap(self, name: str, fn):
        """*fn* wrapped in a span; coroutine and generator functions too."""
        nid = self._name_id(name)
        log = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = log._open(nid)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    log._close(index, token)
            return traced_async
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # One span per step, so the consumer's work between steps
                # is not charged to the generator.
                iterator = fn(*args, **kwargs)
                while True:
                    index, token = log._open(nid)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        log._close(index, token)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, token = log._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(index, token)
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's intervals."""
        n = len(self.start)
        children: Dict[int, List[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [0.0] * n
        for i in range(n):
            duration = self.end[i] - self.start[i]
            kids = children.get(i)
            if kids:
                duration -= _union_length(
                    [(self.start[k], self.end[k]) for k in kids],
                    self.start[i], self.end[i],
                )
            out[i] = max(0.0, duration)
        return out

    def coverage(self, windows: List[Tuple[float, float]]) -> float:
        """Seconds of *windows* covered by at least one span."""
        merged: List[List[float]] = []
        for lo, hi in sorted(
            (self.start[i], self.end[i]) for i in range(len(self.start))
            if self.parent[i] < 0
        ):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        starts = [lo for lo, _hi in merged]
        covered = 0.0
        for lo, hi in windows:
            k = max(0, bisect.bisect_right(starts, lo) - 1)
            while k < len(merged) and merged[k][0] < hi:
                covered += max(0.0, min(hi, merged[k][1]) - max(lo, merged[k][0]))
                k += 1
        return covered

    def write(self, path) -> None:
        """Dump every span: one JSON header line, then the raw columns.

        The header names the columns in order with their ``array`` type
        codes; each column holds ``count`` native-endian items.
        """
        columns = (("name", self.name), ("start", self.start),
                   ("end", self.end), ("parent", self.parent))
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[key, column.typecode] for key, column in columns],
            "clock": "time.perf_counter",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _key, column in columns:
                column.tofile(handle)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class EngineCounters:
    """``EngineStats`` deltas summed over the outermost engine calls."""

    FIELDS = ("tasks_submitted", "tasks_memoized", "dp_states")

    def __init__(self):
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._depth = 0

    def wrap(self, fn):
        counters = self

        @functools.wraps(fn)
        def counted(engine, *args, **kwargs):
            counters._depth += 1
            before = [getattr(engine.stats, f) for f in counters.FIELDS]
            try:
                return fn(engine, *args, **kwargs)
            finally:
                counters._depth -= 1
                if counters._depth == 0:
                    for f, b in zip(counters.FIELDS, before):
                        counters.totals[f] += getattr(engine.stats, f) - b
        return counted


def install(log: SpanLog, engine_counters: EngineCounters) -> None:
    """Wrap every entry point in :data:`TARGETS` (for the process's life)."""
    for module_name, class_name, attribute, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        if span_name.startswith("engine.") and class_name is not None:
            original = engine_counters.wrap(original)
        setattr(owner, attribute, log.wrap(span_name, original))

