"""The cache runtime: one memory-budgeted LRU type and its process registry.

Two caches are shared across databases: the engine's counting memo and the
plan cache, whose keys (counting problems, canonical query forms) outlive
any one database. State derived from one database — column indexes, scan
rows, statistics, shard layouts — is not cached here: it lives on the
object it derives from (:meth:`repro.core.factset.IFactSet.derived`) and
is freed with it. This module has two pieces:

* :class:`LRUMemo` — a thread-safe LRU with **per-entry cost accounting**
  (a ``sizeof`` hook prices each entry in bytes at store time) and uniform
  counters (``hits/misses/evictions/bytes/invalidations``).
* :class:`CacheRegistry` — the process-wide runtime every shared cache
  enrolls in. It owns an optional **global byte budget** shared across all
  enrolled caches: when the accounted total exceeds the budget, the
  registry evicts globally-least-recent entries *across* caches (weighted
  by their byte cost) until the total fits — a cache holding cold, heavy
  entries yields space to one serving hot, light ones, which no per-cache
  entry bound can do. :meth:`CacheRegistry.invalidate_tags` drops, in one
  call, every entry of every enrolled cache whose key is among the given
  tags.

Recency is global: every hit or store draws a tick from one process-wide
counter, so "least recent across all caches" is well-defined without any
cross-cache lock ordering. Lock discipline: a cache's own lock is never
held while the registry lock is taken (stores release before rebalancing),
and the registry takes at most one cache lock at a time — no lock-order
cycles, property-hammered in ``tests/cache/test_runtime.py``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from itertools import count, islice
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

#: Default capacity (entry count) of a memo, matching the engine's
#: historical shared-memo bound.
DEFAULT_CACHE_SIZE = 4096

#: How many elements of a container :func:`sizeof_estimate` samples before
#: extrapolating (keeps pricing O(1) in the container size).
_SIZEOF_SAMPLE = 8

#: The process-wide recency clock. ``itertools.count`` advances atomically
#: under CPython, and ticks are only *compared* under locks, so the clock
#: itself needs none.
_TICK = count(1)


def sizeof_estimate(obj: Any, depth: int = 3) -> int:
    """A fast, deterministic byte estimate of one Python object.

    ``sys.getsizeof`` plus a sampled extrapolation over container elements
    (first ``_SIZEOF_SAMPLE`` items price the rest), recursing ``depth``
    levels. An *estimate*: budget accounting needs consistency, not
    ``tracemalloc`` accuracy — the same object always prices the same.
    """
    size = sys.getsizeof(obj)
    if depth <= 0:
        return size
    if isinstance(obj, (tuple, list, set, frozenset)):
        n = len(obj)
        if n:
            sample = list(islice(iter(obj), _SIZEOF_SAMPLE))
            per = sum(sizeof_estimate(s, depth - 1) for s in sample)
            size += (per * n) // len(sample)
    elif isinstance(obj, dict):
        n = len(obj)
        if n:
            sample = list(islice(obj.items(), _SIZEOF_SAMPLE))
            per = sum(
                sizeof_estimate(k, depth - 1) + sizeof_estimate(v, depth - 1)
                for k, v in sample
            )
            size += (per * n) // len(sample)
    return size


def default_sizeof(key: Hashable, value: Any) -> int:
    """The default per-entry cost hook: estimated bytes of key plus value."""
    return sizeof_estimate(key) + sizeof_estimate(value)


class CacheStats(NamedTuple):
    """A point-in-time snapshot of a memo's counters.

    The first five fields predate the cache runtime and keep their exact
    positions — code unpacking the historical 5-tuple keeps working;
    ``bytes`` and ``invalidations`` are runtime additions with defaults.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    bytes: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never asked)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering (the ``stats()["cache"]`` leaf)."""
        out: Dict[str, object] = dict(self._asdict())
        out["hit_rate"] = self.hit_rate
        return out


class _Entry:
    """One cache line: the value plus its cost and recency tick."""

    __slots__ = ("value", "cost", "tick")

    def __init__(self, value: Any, cost: int):
        self.value = value
        self.cost = cost
        self.tick = next(_TICK)


class LRUMemo:
    """A thread-safe LRU cache with byte accounting.

    Parameters
    ----------
    maxsize:
        Per-cache entry-count bound (the historical eviction rule; always
        enforced). The registry's byte budget evicts *on top of* this.
    name:
        The cache's name in the registry's ``stats()`` tree. Anonymous
        memos (private engine caches, test fixtures) may omit it.
    sizeof:
        ``(key, value) -> bytes`` cost hook, priced once at store time.
        Defaults to :func:`default_sizeof`.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        *,
        name: Optional[str] = None,
        sizeof: Optional[Callable[[Hashable, Any], int]] = None,
    ):
        if maxsize <= 0:
            raise ValueError("LRUMemo needs a positive maxsize")
        self.maxsize = maxsize
        self.name = name
        self._sizeof = sizeof if sizeof is not None else default_sizeof
        self._data: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._registry: Optional["CacheRegistry"] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._bytes = 0

    # -- core operations ---------------------------------------------------------

    def lookup(self, key: Hashable) -> Tuple[bool, Optional[Any]]:
        """``(hit, value)``; a hit refreshes the entry's (global) recency."""
        with self._lock:
            entry = self._data.get(key)
            if entry is not None:
                self._data.move_to_end(key)
                entry.tick = next(_TICK)
                self.hits += 1
                return True, entry.value
            self.misses += 1
            return False, None

    def store(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry."""
        with self._lock:
            self._store_locked(key, value)
        self._after_store()

    def _store_locked(self, key: Hashable, value: Any) -> None:
        old = self._data.get(key)
        if old is not None:
            self._bytes -= old.cost
        entry = _Entry(value, max(0, int(self._sizeof(key, value))))
        self._data[key] = entry
        self._data.move_to_end(key)
        self._bytes += entry.cost
        while len(self._data) > self.maxsize:
            self._evict_locked()

    def _after_store(self) -> None:
        registry = self._registry
        if registry is not None:
            registry.balance()

    def _evict_locked(self) -> None:
        _key, entry = self._data.popitem(last=False)
        self._bytes -= entry.cost
        self.evictions += 1

    def invalidate_tags(self, tags: Iterable[Hashable]) -> int:
        """Retire every entry keyed by any of *tags*.

        Returns how many entries were dropped; each counts once in
        ``invalidations``.
        """
        dropped = 0
        with self._lock:
            for tag in tags:
                try:
                    entry = self._data.pop(tag, None)
                except TypeError:  # unhashable tag can match nothing here
                    continue
                if entry is not None:
                    self._bytes -= entry.cost
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        with self._lock:
            self._data.clear()
            self._bytes = 0

    # -- registry hooks (each takes the cache lock briefly; never nested) --------

    def oldest_tick(self) -> Optional[int]:
        """The recency tick of the least-recent entry (``None`` if empty)."""
        with self._lock:
            if not self._data:
                return None
            return next(iter(self._data.values())).tick

    def evict_oldest(self) -> int:
        """Evict the least-recent entry; returns the bytes reclaimed."""
        with self._lock:
            if not self._data:
                return 0
            entry = next(iter(self._data.values()))
            cost = entry.cost
            self._evict_locked()
            return cost

    # -- introspection -----------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Accounted bytes currently held (sum of entry costs)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self) -> CacheStats:
        """A consistent point-in-time :class:`CacheStats` snapshot."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._data),
                maxsize=self.maxsize,
                bytes=self._bytes,
                invalidations=self.invalidations,
            )

    def __repr__(self) -> str:
        name = f"{self.name!r}, " if self.name else ""
        return (
            f"LRUMemo({name}{len(self._data)}/{self.maxsize} entries, "
            f"{self._bytes} bytes)"
        )


class CacheRegistry:
    """The process-wide cache runtime: one byte budget and one stats tree.

    Enrolled caches share one optional byte budget; ``None`` (the default)
    means per-cache ``maxsize`` bounds alone apply — exactly the historical
    behavior, at zero added cost on the store path.
    """

    def __init__(self, budget_bytes: Optional[int] = None):
        self._lock = threading.Lock()
        self._caches: "OrderedDict[str, LRUMemo]" = OrderedDict()
        self._budget = budget_bytes
        self.budget_evictions = 0

    # -- enrollment --------------------------------------------------------------

    def enroll(self, memo: LRUMemo) -> LRUMemo:
        """Put one named cache under the registry's budget and stats tree."""
        if not memo.name:
            raise ValueError("an enrolled cache needs a name")
        with self._lock:
            existing = self._caches.get(memo.name)
            if existing is not None and existing is not memo:
                raise ValueError(f"cache {memo.name!r} is already enrolled")
            self._caches[memo.name] = memo
        memo._registry = self
        return memo

    def is_enrolled(self, memo: LRUMemo) -> bool:
        """Whether *memo* itself (by identity) is under this registry."""
        with self._lock:
            return any(m is memo for m in self._caches.values())

    def cache(self, name: str) -> Optional[LRUMemo]:
        """The enrolled cache of that name, if any."""
        with self._lock:
            return self._caches.get(name)

    def caches(self) -> List[LRUMemo]:
        """Every enrolled cache, in enrollment order."""
        with self._lock:
            return list(self._caches.values())

    # -- the byte budget ---------------------------------------------------------

    def set_budget(self, budget_bytes: Optional[int]) -> None:
        """Set (or clear, with ``None``) the global byte budget."""
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        with self._lock:
            self._budget = budget_bytes
        self.balance()

    def budget(self) -> Optional[int]:
        """The global byte budget, or ``None`` when unbounded."""
        return self._budget

    def total_bytes(self) -> int:
        """Accounted bytes across every enrolled cache."""
        return sum(memo.bytes for memo in self.caches())

    def balance(self) -> int:
        """Evict globally-least-recent entries until the budget fits.

        The victim each round is the enrolled cache whose *oldest* entry has
        the smallest global recency tick — a merge of all per-cache LRU
        orders, weighted by byte cost (one heavy cold entry buys room for
        many light hot ones). Returns how many entries were evicted. No-op
        without a budget.
        """
        if self._budget is None:
            return 0
        evicted = 0
        with self._lock:
            budget = self._budget
            if budget is None:
                return 0
            caches = list(self._caches.values())
            while sum(memo.bytes for memo in caches) > budget:
                victim: Optional[LRUMemo] = None
                victim_tick: Optional[int] = None
                for memo in caches:
                    tick = memo.oldest_tick()
                    if tick is not None and (
                        victim_tick is None or tick < victim_tick
                    ):
                        victim, victim_tick = memo, tick
                if victim is None:
                    break
                victim.evict_oldest()
                evicted += 1
            self.budget_evictions += evicted
        return evicted

    # -- invalidation ------------------------------------------------------------

    def invalidate_tags(self, tags: Iterable[Hashable]) -> Dict[str, int]:
        """Retire every enrolled entry keyed by any of *tags*.

        The returned ``{cache name: dropped}`` map says how many entries
        each cache gave up.
        """
        tags = tuple(tags)
        out: Dict[str, int] = {}
        if not tags:
            return out
        for memo in self.caches():
            dropped = memo.invalidate_tags(tags)
            if dropped:
                out[memo.name or repr(memo)] = dropped
        return out

    def clear_all(self) -> None:
        """Drop every enrolled cache's entries (tests and benchmarks)."""
        for memo in self.caches():
            memo.clear()

    # -- the stats tree ----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The unified ``stats()["cache"]`` tree: per-cache and global.

        Shape::

            {"budget_bytes": int|None, "bytes": int, "hits": int,
             "misses": int, "evictions": int, "invalidations": int,
             "budget_evictions": int,
             "caches": {name: {hits, misses, hit_rate, evictions,
                               invalidations, bytes, size, maxsize}}}
        """
        per_cache: Dict[str, Dict[str, object]] = {}
        totals = {"hits": 0, "misses": 0, "evictions": 0,
                  "invalidations": 0, "bytes": 0}
        for memo in self.caches():
            snapshot = memo.stats()
            per_cache[memo.name or repr(memo)] = snapshot.to_dict()
            totals["hits"] += snapshot.hits
            totals["misses"] += snapshot.misses
            totals["evictions"] += snapshot.evictions
            totals["invalidations"] += snapshot.invalidations
            totals["bytes"] += snapshot.bytes
        return {
            "budget_bytes": self._budget,
            "budget_evictions": self.budget_evictions,
            "caches": per_cache,
            **totals,
        }

    def __repr__(self) -> str:
        budget = self._budget
        rendered = f"{budget}B" if budget is not None else "unbounded"
        return (
            f"CacheRegistry({len(self.caches())} caches, "
            f"{self.total_bytes()}B / {rendered})"
        )
