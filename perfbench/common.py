"""Shared pieces of the benchmark: seeds, digests, percentiles, op records.

Everything here is independent of ``PYTHONHASHSEED``: seeds are derived with
SHA-256, digests hash sorted text renderings, and nothing iterates a set or
a dict in hash order.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def sub_seed(seed: int, *tags) -> int:
    """A 64-bit seed derived from *seed* and *tags* (hash-seed independent)."""
    text = ":".join([str(seed), *(str(t) for t in tags)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random(sub_seed(seed, *tags))


class Digest:
    """SHA-256 over a stream of text lines (callers feed sorted renderings)."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        self._hash.update("\x1f".join(str(p) for p in parts).encode())
        self._hash.update(b"\n")

    def add_collection(self, collection) -> None:
        for source in sorted(collection, key=lambda s: s.name):
            self.add(
                source.name, source.view,
                *sorted(str(f) for f in source.extension),
                source.completeness_bound, source.soundness_bound,
            )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def nearest_rank(sorted_values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile *q* of *sorted_values* and the samples beyond."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(q * n)))
    return sorted_values[rank - 1], n - rank


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLog:
    """Per-op records of one timed run: class, latency, status, output.

    ``latency`` is in seconds. ``ok`` is False for a non-OK response or an
    exception; outputs are kept for the oracle check after the timed region.
    """

    def __init__(self):
        self.classes: List[str] = []
        self.latencies: List[float] = []
        self.ok: List[bool] = []
        self.outputs: List[object] = []
        self.errors: List[str] = []
        #: ``time.monotonic()`` when the first timed op started (set-up ends)
        self.t_first: Optional[float] = None
        #: ``time.perf_counter()`` intervals the timed wall is made of
        self.windows: List[Tuple[float, float]] = []
        #: called after every op in traced runs (samples cache bytes)
        self.sampler: Optional[Callable[[], None]] = None

    def record(self, cls: str, latency: float, ok: bool, output) -> None:
        self.classes.append(cls)
        self.latencies.append(latency)
        self.ok.append(ok)
        self.outputs.append(output)
        if self.sampler is not None:
            self.sampler()

    def __len__(self) -> int:
        return len(self.latencies)

    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cls in self.classes:
            counts[cls] = counts.get(cls, 0) + 1
        return dict(sorted(counts.items()))


def closed_loop(log: OpLog, seconds: float, next_op, run_op) -> float:
    """Run ops back to back until *seconds* of wall time have passed.

    ``next_op(i)`` builds op *i*'s input (untimed); ``run_op(op)`` returns
    ``(class, ok, output)``. Returns the timed wall time: the sum of op
    durations, so input generation between ops is not charged to the
    program.
    """
    clock = time.perf_counter
    log.t_first = time.monotonic()
    deadline = clock() + seconds
    busy = 0.0
    i = 0
    while clock() < deadline:
        op = next_op(i)
        start = clock()
        try:
            cls, ok, output = run_op(op)
        except Exception as exc:  # a failed op is counted, not fatal
            cls, ok, output = getattr(op, "cls", "op"), False, None
            log.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        end = clock()
        busy += end - start
        log.windows.append((start, end))
        log.record(cls, end - start, ok, output)
        i += 1
    return busy


def failures(log: OpLog, mismatches: List[str]) -> int:
    """Ops that failed: non-OK responses and exceptions, plus oracle
    mismatches (an op is counted once at most)."""
    not_ok = sum(1 for ok in log.ok if not ok)
    return min(len(log), not_ok + len(mismatches))


def summarize(log: OpLog, wall: float, tail: Dict[str, object]) -> Dict[str, object]:
    """End-to-end numbers of one run (``setup_s`` is added by the parent);
    *tail* is the workload's ``tail(inputs, log)``."""
    p50, _ = nearest_rank(sorted(log.latencies), 0.5)
    return {
        "p50_ms": p50 * 1000.0,
        **tail,
        "ops_per_s": len(log) / wall if wall > 0 else 0.0,
        "timed_wall_s": wall,
    }


def percentile_tail(log: OpLog, q: float) -> Dict[str, object]:
    """``tail_ms`` as the nearest-rank percentile *q* of the op latencies,
    with the samples beyond it and the op classes around it. A workload
    picks *q* inside one op class: an order statistic on the boundary
    between two classes jumps with the few ops that straddle it."""
    value, beyond = nearest_rank(sorted(log.latencies), q)
    return {
        "tail_ms": value * 1000.0,
        "tail_rule": f"p{q * 100:g}",
        "tail_samples": beyond,
        "classes_at_tail": class_of_rank(log, q),
    }


def class_of_rank(log: OpLog, q: float) -> Dict[str, int]:
    """Op classes around the percentile *q* (the 5 ops on either side),
    so a reader can see whether a reported percentile sits inside a class."""
    order = sorted(range(len(log)), key=lambda i: log.latencies[i])
    if not order:
        return {}
    rank = min(len(order), max(1, math.ceil(q * len(order)))) - 1
    window = order[max(0, rank - 5): rank + 6]
    counts: Dict[str, int] = {}
    for i in window:
        counts[log.classes[i]] = counts.get(log.classes[i], 0) + 1
    return dict(sorted(counts.items()))


def frozen_answers(answers: Iterable) -> frozenset:
    """Answer atoms as a frozenset of plain value tuples."""
    return frozenset(tuple(c.value for c in a.args) for a in answers)
