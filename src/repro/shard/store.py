"""The :class:`ShardedDatabase` facade: one database, many fact-set shards.

A sharded database wraps a boxed :class:`~repro.model.database.GlobalDatabase`
plus a :class:`~repro.shard.partition.PartitionSpec` and materializes, lazily
and at most once each:

* the **base shards** — the disjoint hash partition of the interned core;
* **broadcast fragments** — per big-relation: that relation's shard plus a
  full replica of everything else (the distributed hash-join layout for one
  large relation joined against small ones);
* **repartition fragments** — facts re-bucketed by the value at a *join
  variable's* positions, so co-grouped facts meet in one fragment even when
  the base partition key disagrees with the join key.

Every fragment is a plain :class:`~repro.core.factset.IFactSet`, so the plan
layer's per-fact-set state (scan rows, column indexes, statistics) applies
to fragments exactly as it does to whole databases — a fragment reused
across queries pays its build cost once, and the store's fragments and
their state are freed with the store.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Tuple

from repro.core.factset import IFactSet
from repro.exceptions import ModelError
from repro.model.database import GlobalDatabase
from repro.shard.partition import PartitionSpec, partition_facts, stable_bucket

#: Canonical cache key of one repartitioning request: per relation ID, the
#: sorted argument positions that must co-locate.
RepartitionKey = Tuple[Tuple[int, Tuple[int, ...]], ...]


class ShardedDatabase:
    """A partition-aware view over one immutable database."""

    def __init__(self, database: GlobalDatabase, spec: PartitionSpec):
        if not isinstance(spec, PartitionSpec):
            raise ModelError(
                f"spec must be a PartitionSpec, got {type(spec).__name__}"
            )
        self.database = database
        self.spec = spec
        self._lock = threading.Lock()
        self._shards: Optional[Tuple[IFactSet, ...]] = None
        self._broadcast: Dict[int, Tuple[IFactSet, ...]] = {}
        self._repartition: Dict[RepartitionKey, Tuple[IFactSet, ...]] = {}

    # -- basic shape -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards the spec splits this database into."""
        return self.spec.num_shards

    def union_core(self) -> IFactSet:
        """The whole database as one interned fact set (the global store)."""
        return self.database.core()

    def shards(self) -> Tuple[IFactSet, ...]:
        """The base hash partition (built once, then cached)."""
        if self._shards is None:
            with self._lock:
                if self._shards is None:
                    self._shards = partition_facts(self.union_core(), self.spec)
        return self._shards

    def shard_sizes(self) -> Tuple[int, ...]:
        """Fact counts per base shard (forces the partition)."""
        return tuple(len(shard) for shard in self.shards())

    # -- join layouts ------------------------------------------------------------

    def broadcast_fragments(self, big_rid: int) -> Tuple[IFactSet, ...]:
        """Fragments for a broadcast join around relation *big_rid*.

        Fragment *b* holds the big relation's facts from base shard *b* plus
        **all** facts of every other relation. Correct whenever the query
        mentions the big relation in exactly one atom: each answer's
        derivation binds that atom to one big-relation fact, which lives in
        exactly one base shard, so the answer appears in exactly that
        fragment (and the union over fragments is complete; soundness is
        monotonicity — every fragment is a subset of the full store).
        """
        fragments = self._broadcast.get(big_rid)
        if fragments is not None:
            return fragments
        shards = self.shards()  # force outside the lock: it locks too
        with self._lock:
            fragments = self._broadcast.get(big_rid)
            if fragments is None:
                union = self.union_core()
                big = union.by_relation(big_rid)
                rest = union.ids() - big
                fragments = tuple(
                    IFactSet(
                        union.table,
                        (shard.ids() & big) | rest,
                    )
                    for shard in shards
                )
                self._broadcast[big_rid] = fragments
        return fragments

    def repartition_fragments(
        self, positions: Mapping[int, Tuple[int, ...]]
    ) -> Tuple[IFactSet, ...]:
        """Fragments re-bucketed on a join variable's value.

        *positions* maps relation IDs to the argument positions where the
        join variable occurs in the query's atoms over that relation. A fact
        of relation *r* is placed in the bucket of its value at **each**
        listed position (a self-join over two positions duplicates the fact
        into both buckets — the merge layer's union absorbs it). Facts of
        relations outside *positions* are dropped: the query never scans
        them, and shipping them would be pure replication cost.
        """
        key: RepartitionKey = tuple(
            sorted((rid, tuple(sorted(set(pos)))) for rid, pos in positions.items())
        )
        fragments = self._repartition.get(key)
        if fragments is not None:
            return fragments
        with self._lock:
            fragments = self._repartition.get(key)
            if fragments is None:
                fragments = self._build_repartition(dict(key))
                self._repartition[key] = fragments
        return fragments

    def _build_repartition(
        self, positions: Dict[int, Tuple[int, ...]]
    ) -> Tuple[IFactSet, ...]:
        union = self.union_core()
        table = union.table
        constant_value = table.constant_value
        num = self.spec.num_shards
        buckets: Tuple[set, ...] = tuple(set() for _ in range(num))
        for rid, place_at in positions.items():
            for fid in union.by_relation(rid):
                args = table.fact_args(fid)
                for position in place_at:
                    if position < len(args):
                        buckets[
                            stable_bucket(constant_value(args[position]), num)
                        ].add(fid)
        return tuple(
            IFactSet(table, frozenset(bucket)) for bucket in buckets  # boxed-ok: ints
        )

    # -- lifecycle ---------------------------------------------------------------

    def layout_counters(self) -> Dict[str, int]:
        """Materialization counters (for ``stats()`` surfaces)."""
        with self._lock:
            return {
                "shards": self.spec.num_shards,
                "base_built": 0 if self._shards is None else len(self._shards),
                "broadcast_layouts": len(self._broadcast),
                "repartition_layouts": len(self._repartition),
            }

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase({len(self.database)} facts, "
            f"{self.spec.num_shards} shards)"
        )
