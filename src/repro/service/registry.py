"""Versioned source registry: copy-on-write snapshots, validate then swap.

The registry is the service's only mutable state. Every mutation —
``register``, ``update``, ``deregister``, ``set_domain`` — builds a brand-new
immutable :class:`RegistrySnapshot` (collections and snapshots are never
edited in place) and atomically swaps the head pointer, so a request that
grabbed version *v* at admission keeps computing against *v* no matter what
lands meanwhile. That is the snapshot-isolation guarantee the acceptance
test exercises by registering a source mid-flight.

A snapshot checks its collection by value when it is built
(:func:`~repro.confidence.blocks.check_identity_collection`: identity views
over one relation, every extension constant in the domain). An invalid
mutation therefore raises :class:`~repro.exceptions.SourceError` before the
head moves, and interns nothing. The engine memo needs no invalidation: a
memo key *is* the counting problem, so a line can never become wrong, and
lines no version will ask for again are reclaimed by LRU and the byte
budget — while a mutation that restores an earlier state, a
re-registration under a new name, a permutation of sources, or a renamed
domain still hits them.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SourceError
from repro.model.atoms import Atom
from repro.sources.collection import SourceCollection
from repro.sources.descriptor import SourceDescriptor
from repro.confidence.blocks import IdentityInstance, check_identity_collection


class RegistrySnapshot:
    """One immutable registry version: a collection and a domain.

    A non-empty collection must pass
    :func:`~repro.confidence.blocks.check_identity_collection` against the
    domain, or construction raises :class:`~repro.exceptions.SourceError`.
    The block decomposition (:class:`IdentityInstance`) is built lazily on
    first use and cached — snapshots are cheap to mint and only pay for
    analysis when a request actually computes against them.
    """

    __slots__ = ("version", "collection", "domain", "_lock", "_instance")

    def __init__(
        self, version: int, collection: SourceCollection, domain: Sequence
    ):
        self.version = version
        self.collection = collection
        self.domain: Tuple = tuple(domain)
        if len(collection):
            check_identity_collection(collection, self.domain)
        self._lock = threading.Lock()
        self._instance: Optional[IdentityInstance] = None

    def instance(self) -> IdentityInstance:
        """The snapshot's block decomposition (cached, thread-safe)."""
        with self._lock:
            if self._instance is None:
                self._instance = IdentityInstance(self.collection, self.domain)
            return self._instance

    def covered_facts(self) -> List[Atom]:
        """All facts claimed by at least one source (global form)."""
        instance = self.instance()
        return [f for block in instance.blocks for f in block.facts]

    def __repr__(self) -> str:
        return (
            f"RegistrySnapshot(v{self.version}, "
            f"{len(self.collection)} sources, |dom|={len(self.domain)})"
        )


class RegistryDiff:
    """What one registry mutation changed: versions and source names."""

    __slots__ = ("old_version", "new_version", "changed_sources")

    def __init__(
        self,
        old_version: int,
        new_version: int,
        changed_sources: FrozenSet[str],
    ):
        self.old_version = old_version
        self.new_version = new_version
        self.changed_sources = changed_sources

    def __repr__(self) -> str:
        return (
            f"RegistryDiff(v{self.old_version}->v{self.new_version}, "
            f"sources={sorted(self.changed_sources)})"
        )


class SourceRegistry:
    """Thread-safe, versioned registry of source descriptors.

    All mutations return the new :class:`RegistrySnapshot` and the
    :class:`RegistryDiff` against the previous head. A rejected mutation
    raises :class:`~repro.exceptions.SourceError` and leaves the head as it
    was. Readers call :meth:`snapshot` once and hold the result; the head
    swap is atomic under the registry lock, and snapshots are immutable, so
    readers never observe a half-applied mutation.
    """

    def __init__(
        self,
        sources: Iterable[SourceDescriptor] = (),
        domain: Sequence = (),
    ):
        self._lock = threading.Lock()
        self._head = RegistrySnapshot(0, SourceCollection(sources), domain)

    # -- reads ------------------------------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        """The current head (grab once per request; it never mutates)."""
        with self._lock:
            return self._head

    def version(self) -> int:
        """The head's version number."""
        with self._lock:
            return self._head.version

    # -- mutations --------------------------------------------------------------

    def _swap(
        self, collection: SourceCollection, domain: Sequence,
        changed: FrozenSet[str],
    ) -> Tuple[RegistrySnapshot, RegistryDiff]:
        old = self._head
        new = RegistrySnapshot(old.version + 1, collection, domain)
        self._head = new
        return new, RegistryDiff(old.version, new.version, changed)

    def register(
        self, source: SourceDescriptor
    ) -> Tuple[RegistrySnapshot, RegistryDiff]:
        """Add a new source (names must stay unique)."""
        with self._lock:
            old = self._head
            if any(s.name == source.name for s in old.collection):
                raise SourceError(f"source {source.name!r} already registered")
            return self._swap(
                old.collection.extended(source),
                old.domain,
                frozenset([source.name]),
            )

    def update(
        self, source: SourceDescriptor
    ) -> Tuple[RegistrySnapshot, RegistryDiff]:
        """Replace the registered source of the same name."""
        with self._lock:
            old = self._head
            if not any(s.name == source.name for s in old.collection):
                raise SourceError(f"no source named {source.name!r}")
            replaced = [
                source if s.name == source.name else s for s in old.collection
            ]
            return self._swap(
                SourceCollection(replaced), old.domain,
                frozenset([source.name]),
            )

    def deregister(self, name: str) -> Tuple[RegistrySnapshot, RegistryDiff]:
        """Remove a source by name."""
        with self._lock:
            old = self._head
            remaining = [s for s in old.collection if s.name != name]
            if len(remaining) == len(old.collection):
                raise SourceError(f"no source named {name!r}")
            return self._swap(
                SourceCollection(remaining), old.domain, frozenset([name])
            )

    def set_domain(
        self, domain: Sequence
    ) -> Tuple[RegistrySnapshot, RegistryDiff]:
        """Replace the finite domain (every source counts as changed)."""
        with self._lock:
            old = self._head
            names = frozenset(s.name for s in old.collection)
            return self._swap(old.collection, domain, names)
