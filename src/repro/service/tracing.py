"""Minimal trace spans for the service's request path.

A :class:`Tracer` hands out ``with``-scoped :class:`Span` timers and retains
the most recent completed spans in a bounded ring. Spans carry a name, a
wall-clock duration, free-form attributes, and the id of their parent span,
so a request's path — ``admit → wait → source_read → engine → resolve`` —
reconstructs as a tree. ``export()`` renders plain dicts for the service's
``stats()`` payload; there is no external tracing backend in the container,
and none is needed for the E16 analysis.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

#: Completed spans retained (oldest dropped first).
DEFAULT_SPAN_LIMIT = 512


class Span:
    """One timed section; use as a context manager.

    >>> tracer = Tracer()
    >>> with tracer.span("engine", request_id=7) as span:
    ...     span.attributes["batch_size"] = 3
    >>> tracer.export()[0]["name"]
    'engine'
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attributes",
                 "started_at", "duration")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Dict[str, object],
    ):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.started_at = 0.0
        self.duration = 0.0

    def __enter__(self) -> "Span":
        self.started_at = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.started_at
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)

    def child(self, name: str, **attributes) -> "Span":
        """A new span parented to this one."""
        return self.tracer.span(name, parent=self, **attributes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form: name, IDs, duration and attributes."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """A bounded ring of completed spans."""

    def __init__(self, limit: int = DEFAULT_SPAN_LIMIT):
        self._lock = threading.Lock()
        self._finished: Deque[Span] = deque(maxlen=max(1, limit))
        self._ids = itertools.count(1)
        self.spans_started = 0
        self.spans_dropped = 0

    def span(
        self, name: str, parent: Optional[Span] = None, **attributes
    ) -> Span:
        """Start a span named *name*, under *parent* when one is given."""
        with self._lock:
            self.spans_started += 1
            span_id = next(self._ids)
        return Span(
            self,
            name,
            span_id,
            parent.span_id if parent is not None else None,
            dict(attributes),
        )

    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.spans_dropped += 1
            self._finished.append(span)

    def export(self) -> List[Dict[str, object]]:
        """Completed spans, oldest first, as plain dicts."""
        with self._lock:
            return [span.to_dict() for span in self._finished]

    def durations(self, name: str) -> List[float]:
        """Durations of completed spans with the given name (for tests)."""
        with self._lock:
            return [s.duration for s in self._finished if s.name == name]
