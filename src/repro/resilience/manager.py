"""The per-batch availability pass: breakers, timeouts, hedged probes.

Before a batch computes, the :class:`ResilienceManager` resolves which of
the snapshot's sources are *actually reachable right now*:

1. every source whose breaker is open is excluded instantly (a short
   circuit — no read, no timeout budget spent);
2. the remaining sources are probed **concurrently** through the
   gateway's per-source seam, each under its own ``source_timeout``;
3. an attempt that raised :class:`~repro.service.faults.TransientSourceError`
   is re-launched at once, and an attempt still pending after
   ``hedge_delay`` gets a staggered duplicate (a *hedged* probe) — at most
   ``max_hedges`` extra attempts per source, the first success wins and
   the stragglers are cancelled. A
   :class:`~repro.service.faults.SourceCrashedError` is never retried.
   This is the service's only retry loop;
4. outcomes feed the breakers: failures open them, cooldowns half-open
   them, trial successes close them.

The result is a :class:`ProbeReport`: the excluded source names (to be
demoted by :mod:`repro.resilience.degrade`) plus counters. The manager
never raises — total source loss is still a report, and the scheduler
answers from whatever remains.

Everything is clocked off the running event loop and the gateway's seeded
RNGs, so the E22 chaos scenarios replay bit-for-bit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.service.faults import TransientSourceError

#: Bound on remembered breaker transitions (the stats()/bench surface).
MAX_TRANSITIONS = 256


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the per-source availability layer.

    ``source_timeout`` caps each probe (and all its re-launches
    together); ``max_hedges`` bounds the extra attempts per probe, spent
    on transient errors and on slow attempts alike; ``hedge_delay`` is how
    long an attempt may dawdle before a duplicate is launched (0 = never
    hedge on slowness, transient errors are still retried). The breaker
    fields mirror :class:`BreakerConfig`.
    """

    source_timeout: float = 0.05
    hedge_delay: float = 0.0
    max_hedges: int = 1
    error_threshold: float = 0.5
    ewma_alpha: float = 0.4
    min_samples: int = 2
    consecutive_limit: int = 3
    cooldown: float = 0.25
    half_open_probes: int = 1

    def __post_init__(self):
        if self.source_timeout <= 0:
            raise ValueError("source_timeout must be > 0")
        if self.hedge_delay < 0:
            raise ValueError("hedge_delay must be >= 0")
        if self.max_hedges < 0:
            raise ValueError("max_hedges must be >= 0")

    def breaker_config(self) -> BreakerConfig:
        return BreakerConfig(
            error_threshold=self.error_threshold,
            ewma_alpha=self.ewma_alpha,
            min_samples=self.min_samples,
            consecutive_limit=self.consecutive_limit,
            cooldown=self.cooldown,
            half_open_probes=self.half_open_probes,
        )


@dataclass
class ProbeReport:
    """What one availability pass found out."""

    excluded: Tuple[str, ...] = ()
    probed: int = 0
    short_circuited: int = 0
    failures: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: sources whose probe needed more than one attempt
    retried: int = 0
    #: the most attempts any one source's probe made (0 = nothing probed)
    attempts: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.excluded)


class ResilienceManager:
    """Per-source breakers plus the concurrent probe/hedge machinery.

    *metrics* is duck-typed (anything with ``counter(name).inc()`` and
    ``histogram(name).observe()`` — the service passes its
    :class:`~repro.service.metrics.MetricsRegistry`); ``None`` records
    nothing. Breaker state transitions land in ``metrics`` counters
    (``breaker_opened`` / ``breaker_half_opened`` / ``breaker_closed``)
    and in a bounded :attr:`transitions` log.
    """

    def __init__(self, config: Optional[ResilienceConfig] = None, metrics=None):
        self.config = config if config is not None else ResilienceConfig()
        self.metrics = metrics
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.transitions: List[Dict[str, object]] = []

    # -- breakers ----------------------------------------------------------------

    def breaker_for(self, name: str) -> CircuitBreaker:
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                self.config.breaker_config(),
                on_transition=self._record_transition,
            )
            self.breakers[name] = breaker
        return breaker

    def _record_transition(self, name, old, new, now) -> None:
        self.transitions.append(
            {"source": name, "from": old.value, "to": new.value, "at": now}
        )
        del self.transitions[:-MAX_TRANSITIONS]
        if self.metrics is not None:
            self.metrics.counter(f"breaker_{self._verb(new)}").inc()

    @staticmethod
    def _verb(state: BreakerState) -> str:
        return {
            BreakerState.OPEN: "opened",
            BreakerState.HALF_OPEN: "half_opened",
            BreakerState.CLOSED: "closed",
        }[state]

    # -- the availability pass ---------------------------------------------------

    async def resolve(self, snapshot, gateway) -> ProbeReport:
        """Probe every source of *snapshot* through *gateway*; never raises."""
        loop = asyncio.get_running_loop()
        report = ProbeReport()
        excluded: List[str] = []
        probed: List[str] = []
        for source in snapshot.collection:
            name = source.name
            if self.breaker_for(name).allow(loop.time()):
                probed.append(name)
            else:
                excluded.append(name)
                report.short_circuited += 1
                self._count("breaker_short_circuits")
        outcomes = await asyncio.gather(
            *(self._probe(gateway, snapshot, name, report) for name in probed)
        )
        report.probed = len(probed)
        excluded += [name for name, ok in zip(probed, outcomes) if not ok]
        report.excluded = tuple(sorted(excluded))
        if report.excluded:
            self._count("sources_excluded", len(report.excluded))
        return report

    async def _probe(self, gateway, snapshot, name: str, report: ProbeReport) -> bool:
        """One source's probe, retried and hedged; outcome fed to its breaker."""
        loop = asyncio.get_running_loop()
        breaker = self.breaker_for(name)
        config = self.config
        start = loop.time()
        deadline = start + config.source_timeout
        tasks: List["asyncio.Task"] = []

        def launch() -> None:
            if tasks:
                report.hedges += 1
                self._count("source_hedges")
            tasks.append(loop.create_task(gateway.probe(snapshot, name)))

        def fail(outcome: str) -> bool:
            if outcome == "timeouts":
                report.timeouts += 1
            else:
                report.failures += 1
            self._count(f"source_probe_{outcome}")
            breaker.record_failure(loop.time() - start, loop.time())
            return False

        launch()
        try:
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    return fail("timeouts")
                pending = [t for t in tasks if not t.done()]
                if not pending:  # every attempt failed, budget spent
                    return fail("failures")
                budget = len(tasks) <= config.max_hedges
                hedging = budget and config.hedge_delay > 0
                done, _pending = await asyncio.wait(
                    pending,
                    timeout=min(remaining, config.hedge_delay) if hedging else remaining,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                finished = [t for t in tasks if t in done]  # launch order
                winner = next(
                    (t for t in finished if t.exception() is None), None
                )
                if winner is not None:
                    if winner is not tasks[0]:
                        report.hedge_wins += 1
                        self._count("source_hedge_wins")
                    latency = loop.time() - start
                    breaker.record_success(latency, loop.time())
                    self._observe("probe_latency", latency)
                    return True
                if not all(
                    isinstance(t.exception(), TransientSourceError)
                    for t in finished
                ):
                    return fail("failures")  # crashed: retrying cannot help
                # A transient failure, or an attempt slow past hedge_delay.
                if budget and (done or hedging):
                    launch()
        finally:
            report.attempts = max(report.attempts, len(tasks))
            report.retried += len(tasks) > 1
            for task in tasks:
                task.cancel()
            # Reap cancellations/failures so no "exception never retrieved"
            # warnings leak from abandoned attempts.
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- observability -----------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(delta)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def states(self) -> Dict[str, str]:
        """Source → breaker state (tests and quick health checks)."""
        return {name: b.state.value for name, b in sorted(self.breakers.items())}

    def stats(self) -> Dict[str, object]:
        """The ``stats()["resilience"]`` payload: per-source health."""
        return {
            "sources": {
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
            "transitions": list(self.transitions),
            "config": {
                "source_timeout": self.config.source_timeout,
                "hedge_delay": self.config.hedge_delay,
                "error_threshold": self.config.error_threshold,
                "cooldown": self.config.cooldown,
            },
        }

