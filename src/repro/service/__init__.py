"""``repro.service``: the mediator as a long-running, concurrent service.

See ``docs/service.md`` for the architecture. Layering, bottom up:

* :mod:`~repro.service.requests` — request/response vocabulary with
  explicit terminal statuses (OK / TIMEOUT / REJECTED / ERROR).
* :mod:`~repro.service.registry` — versioned, copy-on-write source
  registry; a mutation checks the new version, then swaps the head.
* :mod:`~repro.service.faults` — the source-read seam:
  :class:`PerSourceGateway` gives every source its own lane, seeded fault
  policy (latency, transient errors, crashes, partitions) and counters;
  the availability pass of ``repro.resilience`` probes through it.
* :mod:`~repro.service.metrics` / :mod:`~repro.service.tracing` — the
  observability substrate (counters, gauges, percentile histograms,
  bounded trace spans).
* :mod:`~repro.service.scheduler` — bounded admission, deadlines,
  micro-batching, the per-source availability pass before each batch,
  and one open context per (snapshot version, excluded sources).
* :mod:`~repro.service.server` — :class:`MediatorService`, the composition
  root behind ``python -m repro serve`` and experiment E16.
"""

from repro.service.faults import (
    FaultPolicy,
    PerSourceGateway,
    SourceCrashedError,
    SourceLane,
    TransientSourceError,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.registry import (
    RegistryDiff,
    RegistrySnapshot,
    SourceRegistry,
)
from repro.service.requests import (
    ConfidenceRequest,
    RequestStatus,
    ServiceResponse,
)
from repro.service.scheduler import RequestScheduler, SchedulerConfig
from repro.service.server import MediatorService
from repro.service.tracing import Span, Tracer

__all__ = [
    "MediatorService",
    "RequestScheduler",
    "SchedulerConfig",
    "SourceRegistry",
    "RegistrySnapshot",
    "RegistryDiff",
    "ConfidenceRequest",
    "ServiceResponse",
    "RequestStatus",
    "FaultPolicy",
    "PerSourceGateway",
    "SourceCrashedError",
    "SourceLane",
    "TransientSourceError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
]
