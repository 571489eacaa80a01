"""Deterministic chaos schedules: scripted per-source outages.

A :class:`ChaosSchedule` is a time-ordered list of :class:`ChaosEvent`\\ s
— "at *t* seconds, source *X* starts crashing / partitions / heals". The
:class:`ChaosRunner` applies due events to a
:class:`~repro.service.faults.PerSourceGateway` whenever the driver calls
:meth:`ChaosRunner.advance` with the current (loop or virtual) time.
Nothing in here sleeps or reads a wall clock: the *driver* owns time, so
the same schedule replayed against the same seed produces the same fault
trace, the same breaker transitions, and the same degraded answers —
the property the E22 chaos benchmark and the CI ``chaos-smoke`` job
assert on.

Schedules parse from a compact CLI spec (times in milliseconds)::

    0:S1:crash, 400:S1:ok, 600:S2:error:0.8, 900:S2:slow:20, 1200:S2:partition

Modes: ``crash``, ``partition``, ``ok`` (heal), ``error:<rate>``,
``slow:<latency-ms>``, ``flaky:<rate>`` (alias of ``error``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.service.faults import FaultPolicy, PerSourceGateway


class ChaosSpecError(ReproError):
    """A chaos schedule spec that does not parse."""


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted policy flip: at *at* seconds, *source* gets *policy*.

    ``policy=None`` heals the source (all faults off).
    """

    at: float
    source: str
    policy: Optional[FaultPolicy]
    mode: str = ""

    def __post_init__(self):
        if self.at < 0:
            raise ValueError("chaos events cannot be scheduled before t=0")


def _parse_mode(
    source: str, mode: str, arg: Optional[str]
) -> Optional[FaultPolicy]:
    try:
        if mode == "crash":
            return FaultPolicy(crash=True)
        if mode == "partition":
            return FaultPolicy(partition=True)
        if mode in ("ok", "heal"):
            return None
        if mode in ("error", "flaky"):
            rate = float(arg) if arg is not None else 1.0
            return FaultPolicy(error_rate=rate)
        if mode == "slow":
            latency_ms = float(arg) if arg is not None else 50.0
            return FaultPolicy(latency=latency_ms / 1000.0)
    except ValueError as exc:
        raise ChaosSpecError(
            f"bad chaos argument for {source}:{mode}: {exc}"
        ) from exc
    raise ChaosSpecError(
        f"unknown chaos mode {mode!r} for source {source!r} "
        "(expected crash, partition, ok, error:<rate>, slow:<ms>)"
    )


class ChaosSchedule:
    """An immutable, time-sorted sequence of chaos events."""

    __slots__ = ("events",)

    def __init__(self, events: Sequence[ChaosEvent]):
        self.events: Tuple[ChaosEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """The last event's time (0 for an empty schedule)."""
        return self.events[-1].at if self.events else 0.0

    @classmethod
    def parse(cls, spec: str) -> "ChaosSchedule":
        """Parse the CLI spec format (see the module docstring)."""
        events: List[ChaosEvent] = []
        for chunk in (c.strip() for c in spec.split(",")):
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 3:
                raise ChaosSpecError(
                    f"bad chaos event {chunk!r} (expected AT_MS:SOURCE:MODE)"
                )
            at_ms, source, mode = parts[0], parts[1], parts[2].lower()
            arg = parts[3] if len(parts) > 3 else None
            try:
                at = float(at_ms) / 1000.0
            except ValueError as exc:
                raise ChaosSpecError(
                    f"bad chaos time {at_ms!r} in {chunk!r}"
                ) from exc
            if at < 0:
                raise ChaosSpecError(f"negative chaos time in {chunk!r}")
            if not source:
                raise ChaosSpecError(f"empty source name in {chunk!r}")
            events.append(
                ChaosEvent(at, source, _parse_mode(source, mode, arg), mode)
            )
        return cls(events)


class ChaosRunner:
    """Applies a schedule's due events to a per-source gateway.

    The driver calls :meth:`advance` with monotonically increasing times
    (the service loop's clock, a benchmark's virtual step counter — the
    runner does not care which). Each event fires exactly once; the
    bounded :attr:`applied` log records what fired when, for the bench's
    JSON and the tests' assertions.
    """

    def __init__(self, gateway: PerSourceGateway, schedule: ChaosSchedule):
        self.gateway = gateway
        self.schedule = schedule
        self.applied: List[Dict[str, object]] = []
        self._next = 0

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.schedule.events)

    def advance(self, now: float) -> int:
        """Fire every event with ``at <= now``; returns how many fired."""
        fired = 0
        events = self.schedule.events
        while self._next < len(events) and events[self._next].at <= now:
            event = events[self._next]
            self._next += 1
            if event.policy is None:
                self.gateway.heal(event.source)
            else:
                self.gateway.set_policy(event.source, event.policy)
            self.applied.append(
                {"at": event.at, "source": event.source, "mode": event.mode}
            )
            fired += 1
        return fired

    def finish(self) -> int:
        """Fire everything left (end-of-run cleanup in benches)."""
        return self.advance(float("inf"))
