"""Lightweight engine instrumentation: stage timers and work counters.

Every :class:`~repro.confidence.engine.core.ConfidenceEngine` carries one
:class:`EngineStats`; the CLI's ``--stats`` flag and the E1/E4/E6 benchmark
tables render it. Overhead is a few ``perf_counter`` calls per stage — safe
to leave on permanently.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.confidence.engine.memo import CacheStats


@dataclass
class StageStats:
    """Wall time and call count of one named engine stage."""

    calls: int = 0
    seconds: float = 0.0


@dataclass
class EngineStats:
    """Counters for one engine instance.

    ``worlds_counted`` is the latest ``|poss(S)|`` denominator computed;
    ``tasks_submitted`` counts counting questions (a ``confidences()`` call
    is one, answered by one memo line), of which ``tasks_memoized`` were
    answered without a sweep (by the memo, or by the result the engine
    kept from an earlier ``confidences()`` call); ``tasks_dispatched``
    counts the kernel sweeps that actually ran; ``dp_states`` accumulates
    their final-layer DP state counts (the size of the swept state space,
    the engine's work measure).
    """

    executor: str = "serial"
    workers: int = 1
    stages: Dict[str, StageStats] = field(default_factory=dict)
    tasks_submitted: int = 0
    tasks_memoized: int = 0
    tasks_dispatched: int = 0
    worlds_counted: int = 0
    dp_states: int = 0
    samples_drawn: int = 0
    cache: Optional[CacheStats] = None

    @contextmanager
    def time(self, stage: str) -> Iterator[None]:
        """Accumulate wall time of a ``with``-scoped stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            entry = self.stages.setdefault(stage, StageStats())
            entry.calls += 1
            entry.seconds += time.perf_counter() - start

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (the CLI's ``--stats`` JSON line).

        Every value is a plain int/float/str/dict so ``json.dumps`` works
        directly; external monitors and E16 scrape this shape.
        """
        return {
            "executor": self.executor,
            "workers": self.workers,
            "stages": {
                name: {"calls": stage.calls, "seconds": stage.seconds}
                for name, stage in sorted(self.stages.items())
            },
            "tasks": {
                "submitted": self.tasks_submitted,
                "memoized": self.tasks_memoized,
                "dispatched": self.tasks_dispatched,
            },
            "worlds_counted": self.worlds_counted,
            "dp_states": self.dp_states,
            "samples_drawn": self.samples_drawn,
            "cache": None
            if self.cache is None
            else {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "evictions": self.cache.evictions,
                "size": self.cache.size,
                "maxsize": self.cache.maxsize,
            },
        }

    def render(self) -> str:
        """A human-readable multi-line report (the ``--stats`` output)."""
        lines: List[str] = [f"executor: {self.executor} (workers={self.workers})"]
        for name, stage in sorted(self.stages.items()):
            lines.append(
                f"stage {name:<12} {stage.seconds * 1000:9.2f} ms"
                f"  ({stage.calls} call{'s' if stage.calls != 1 else ''})"
            )
        lines.append(
            f"counting tasks: {self.tasks_submitted} submitted, "
            f"{self.tasks_memoized} memoized, "
            f"{self.tasks_dispatched} computed"
        )
        lines.append(f"dp states swept: {self.dp_states}")
        if self.worlds_counted:
            lines.append(f"possible worlds |poss(S)|: {self.worlds_counted}")
        if self.samples_drawn:
            lines.append(f"monte-carlo samples drawn: {self.samples_drawn}")
        if self.cache is not None:
            lines.append(
                f"cache: {self.cache.hits} hits / {self.cache.misses} misses "
                f"(rate {self.cache.hit_rate:.0%}), "
                f"{self.cache.size}/{self.cache.maxsize} entries, "
                f"{self.cache.evictions} evictions"
            )
        else:
            lines.append("cache: disabled")
        return "\n".join(lines)
