"""The source-read seam and its seeded fault injection.

The scheduler never touches a registry snapshot's extensions directly; it
*probes* them, one source at a time, through a :class:`PerSourceGateway`,
the seam standing in for the network fetch a real mediator performs
against remote sources (the paper's §1.1 flaky web sources). Every source
(or source group) carries its own :class:`FaultPolicy` and its own seeded
RNG in a :class:`SourceLane`, so one crashed or partitioned source degrades
only itself, never the batch. A policy can inject:

* **latency** — every probe sleeps (asyncio, so concurrent probes overlap);
* **transient errors** — probes raise :class:`TransientSourceError` with a
  configured probability, which the availability pass of
  ``repro.resilience`` re-launches within its hedge budget;
* **crash** — probes raise :class:`SourceCrashedError` (a hard failure
  retries cannot fix: the process behind the source is gone);
* **partition** — probes hang (the network path to the source is gone);
  only a caller-side timeout gets control back.

A fault on every source is the gateway's *default* lane policy,
``PerSourceGateway(default=FaultPolicy(...))``. All randomness is seeded,
so every degradation scenario in the tests and in E16/E22 is reproducible.
"""

from __future__ import annotations

import asyncio
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ReproError
from repro.service.registry import RegistrySnapshot
from repro.sources.descriptor import SourceDescriptor

#: How long a partitioned read hangs. Effectively forever next to any
#: per-source timeout; finite so a caller that forgot one still returns.
PARTITION_HANG = 3600.0


class TransientSourceError(ReproError):
    """A source read failed in a retryable way (timeouts, flaky mirrors)."""


class SourceCrashedError(ReproError):
    """A source read failed in a non-retryable way (the source is down)."""


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs of the injected degradation (all off by default).

    ``latency`` is seconds added to every read; ``error_rate`` is a
    probability in [0, 1]; ``error_burst`` makes only the first N reads
    fail (``None`` = every read is a coin flip), which lets tests script
    "fails twice, then recovers" deterministically.
    ``crash`` makes every read raise :class:`SourceCrashedError`;
    ``partition`` makes every read hang until the caller's timeout — the
    two hard outage modes the circuit breakers of ``repro.resilience``
    are built to contain.
    """

    latency: float = 0.0
    error_rate: float = 0.0
    error_burst: Optional[int] = None
    seed: int = 0
    crash: bool = False
    partition: bool = False

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )

    @property
    def healthy(self) -> bool:
        """True when this policy injects nothing at all."""
        return (
            self.latency == 0.0
            and self.error_rate == 0.0
            and not self.crash
            and not self.partition
        )


class SourceLane:
    """One source's private fault lane inside a :class:`PerSourceGateway`.

    Carries the source's current :class:`FaultPolicy`, a deterministically
    derived RNG (stable under chaos-schedule policy swaps: the stream is
    seeded once per lane, not per policy), and per-lane counters.
    """

    __slots__ = ("name", "policy", "reads", "errors_injected", "crashes",
                 "partitions", "_rng")

    def __init__(self, name: str, policy: FaultPolicy, seed: int):
        self.name = name
        self.policy = policy
        self.reads = 0
        self.errors_injected = 0
        self.crashes = 0
        self.partitions = 0
        # blake-free stable per-lane seed: crc32 is deterministic across
        # processes and PYTHONHASHSEED values, unlike hash(str).
        self._rng = random.Random(seed ^ zlib.crc32(name.encode("utf-8")))

    async def pass_through(self) -> None:
        """Inject this lane's faults, or return cleanly."""
        self.reads += 1
        policy = self.policy
        if policy.latency > 0:
            await asyncio.sleep(policy.latency)
        if policy.partition:
            self.partitions += 1
            await asyncio.sleep(PARTITION_HANG)
        if policy.crash:
            self.crashes += 1
            raise SourceCrashedError(
                f"source {self.name!r} crashed (read #{self.reads})"
            )
        if policy.error_rate > 0:
            bursting = (
                policy.error_burst is None
                or self.errors_injected < policy.error_burst
            )
            if bursting and self._rng.random() < policy.error_rate:
                self.errors_injected += 1
                raise TransientSourceError(
                    f"injected transient failure on {self.name!r} "
                    f"(read #{self.reads})"
                )

    def counters(self) -> Dict[str, object]:
        return {
            "reads": self.reads,
            "errors_injected": self.errors_injected,
            "crashes": self.crashes,
            "partitions": self.partitions,
            "policy": {
                "latency": self.policy.latency,
                "error_rate": self.policy.error_rate,
                "crash": self.policy.crash,
                "partition": self.policy.partition,
            },
        }


class PerSourceGateway:
    """The service's gateway: fault injection split per source.

    Each source name resolves to a :class:`SourceLane` holding its own
    policy and seeded RNG; sources without an explicit policy share
    *default* (but still get their own lane and RNG stream, so flipping
    one source's policy mid-run never perturbs another's randomness).
    Policies are swappable at runtime (:meth:`set_policy` /
    :meth:`heal`) — the mutation surface the chaos runner drives.
    ``reads`` counts every probe across all lanes.
    """

    def __init__(
        self,
        default: Optional[FaultPolicy] = None,
        policies: Optional[Dict[str, FaultPolicy]] = None,
        seed: int = 0,
    ):
        self.default = default if default is not None else FaultPolicy()
        self.seed = seed
        self.reads = 0
        self._lanes: Dict[str, SourceLane] = {}
        for name, policy in (policies or {}).items():
            self._lanes[name] = SourceLane(name, policy, seed)

    # -- policy surface (the chaos runner's mutation seam) -----------------------

    def lane(self, name: str) -> SourceLane:
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = SourceLane(name, self.default, self.seed)
        return lane

    def policy_for(self, name: str) -> FaultPolicy:
        lane = self._lanes.get(name)
        return lane.policy if lane is not None else self.default

    def set_policy(self, name: str, policy: FaultPolicy) -> None:
        """Swap one source's fault policy in place (takes effect next read)."""
        self.lane(name).policy = policy

    def heal(self, name: str) -> None:
        """Clear one source's faults (its lane keeps its counters and RNG)."""
        self.lane(name).policy = FaultPolicy()

    # -- reads -------------------------------------------------------------------

    async def probe(
        self, snapshot: RegistrySnapshot, name: str
    ) -> SourceDescriptor:
        """Read one source of *snapshot* through its own fault lane."""
        self.reads += 1
        await self.lane(name).pass_through()
        return snapshot.collection.by_name(name)

    def stats(self) -> Dict[str, object]:
        """Per-lane counters (the gateway section of ``stats()``)."""
        return {name: lane.counters() for name, lane in sorted(self._lanes.items())}
