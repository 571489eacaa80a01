"""Deterministic hash partitioning of interned fact sets.

A :class:`PartitionSpec` names, per relation, which argument position is the
*partition key*; :func:`partition_facts` splits an
:class:`~repro.core.factset.IFactSet` into ``num_shards`` disjoint fact sets
by hashing the key position's constant **value**.

The bucket hash is :func:`stable_bucket`, built on ``blake2b`` over the
value's ``(type name, repr)`` pair — the same vocabulary as
:func:`repro.model.terms.term_sort_key`. Python's builtin ``hash`` is
deliberately avoided: it is salted per process (``PYTHONHASHSEED``), and a
shard assignment must agree between runs, including any future run that
reads a persisted layout. Interned IDs are avoided
for the same reason — they are process-local
(:mod:`repro.core.symbols`), while values survive the trip.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.factset import IFactSet
from repro.exceptions import ModelError

#: Separator between the type name and the repr inside the hash payload;
#: chosen outside the printable range a repr normally produces.
_SEP = b"\x1f"


def stable_bucket(value: Any, num_shards: int) -> int:
    """The shard index of a constant *value* — stable across processes.

    >>> stable_bucket("a", 4) == stable_bucket("a", 4)
    True
    >>> 0 <= stable_bucket(17, 8) < 8
    True

    Values of different types never collide through type coercion the way
    ``hash(1) == hash(1.0)`` does: the payload starts with the type name,
    mirroring the total order of ``repro.model.terms``.
    """
    if num_shards < 1:
        raise ModelError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return 0
    payload = (
        type(value).__name__.encode("utf-8", "backslashreplace")
        + _SEP
        + repr(value).encode("utf-8", "backslashreplace")
    )
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class PartitionSpec:
    """How a database is split: shard count plus per-relation key positions.

    ``keys`` maps relation names to the argument position used as the
    partition key; relations not named fall back to ``default_key``. A key
    position past a relation's arity clamps to the last argument, and
    zero-arity relations have no key at all — their facts land in shard 0.

    Specs are immutable values: equal specs hash alike, so caches keyed by
    ``(facts, spec)`` behave.
    """

    __slots__ = ("num_shards", "default_key", "_keys", "_hash")

    def __init__(
        self,
        num_shards: int,
        keys: Optional[Mapping[str, int]] = None,
        default_key: int = 0,
    ):
        if num_shards < 1:
            raise ModelError(f"num_shards must be >= 1, got {num_shards}")
        if default_key < 0:
            raise ModelError(f"default_key must be >= 0, got {default_key}")
        items = tuple(sorted((keys or {}).items()))
        for relation, position in items:
            if position < 0:
                raise ModelError(
                    f"partition key of {relation!r} must be >= 0, got {position}"
                )
        self.num_shards = num_shards
        self.default_key = default_key
        self._keys: Tuple[Tuple[str, int], ...] = items
        self._hash = hash((num_shards, default_key, items))

    def keys(self) -> Dict[str, int]:
        """The explicit per-relation key positions, as a fresh dict."""
        return dict(self._keys)

    def key_position(self, relation: str, arity: int) -> Optional[int]:
        """The partition-key argument position for *relation* at *arity*.

        ``None`` for zero-arity relations (nothing to hash).
        """
        if arity <= 0:
            return None
        position = dict(self._keys).get(relation, self.default_key)
        return min(position, arity - 1)

    def shard_of_args(self, relation: str, values: Tuple[Any, ...]) -> int:
        """The shard a fact ``relation(values...)`` belongs to."""
        position = self.key_position(relation, len(values))
        if position is None:
            return 0
        return stable_bucket(values[position], self.num_shards)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionSpec)
            and self.num_shards == other.num_shards
            and self.default_key == other.default_key
            and self._keys == other._keys
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        keys = f", keys={dict(self._keys)!r}" if self._keys else ""
        default = (
            f", default_key={self.default_key}" if self.default_key else ""
        )
        return f"PartitionSpec({self.num_shards}{keys}{default})"


def partition_facts(
    facts: IFactSet, spec: PartitionSpec
) -> Tuple[IFactSet, ...]:
    """Split *facts* into ``spec.num_shards`` disjoint fact sets.

    Every fact lands in exactly one shard — the one its partition-key
    value hashes to — so the shards' union is *facts* and pairwise
    intersections are empty (property-tested). The assignment only reads
    decoded values, never raw IDs, so two processes interning the same
    database in different orders agree on the layout.

    Not cached here: :meth:`~repro.shard.store.ShardedDatabase.shards`
    keeps each store's base partition for the store's lifetime.
    """
    if spec.num_shards == 1:
        return (facts,)
    table = facts.table
    fact_tuple = table.fact_tuple
    constant_value = table.constant_value
    relation_name = table.relation_name
    key_by_rid: Dict[Tuple[int, int], Optional[int]] = {}
    buckets: Tuple[set, ...] = tuple(set() for _ in range(spec.num_shards))
    for fid in facts.ids():
        t = fact_tuple(fid)
        arity = len(t) - 1
        position = key_by_rid.get((t[0], arity))
        if position is None and (t[0], arity) not in key_by_rid:
            position = spec.key_position(relation_name(t[0]), arity)
            key_by_rid[(t[0], arity)] = position
        if position is None:
            buckets[0].add(fid)
        else:
            buckets[
                stable_bucket(constant_value(t[1 + position]), spec.num_shards)
            ].add(fid)
    return tuple(
        IFactSet(table, frozenset(bucket)) for bucket in buckets  # boxed-ok: ints
    )


def bucket_of_fact(facts: IFactSet, spec: PartitionSpec, fid: int) -> int:
    """The shard index one interned fact would be assigned to."""
    table = facts.table
    t = table.fact_tuple(fid)
    position = spec.key_position(table.relation_name(t[0]), len(t) - 1)
    if position is None:
        return 0
    return stable_bucket(table.constant_value(t[1 + position]), spec.num_shards)
