"""Versioned source registry: copy-on-write snapshots + memo invalidation.

The registry is the service's only mutable state. Every mutation —
``register``, ``update``, ``deregister``, ``set_domain`` — builds a brand-new
immutable :class:`RegistrySnapshot` (collections and snapshots are never
edited in place) and atomically swaps the head pointer, so a request that
grabbed version *v* at admission keeps computing against *v* no matter what
lands meanwhile. That is the snapshot-isolation guarantee the acceptance
test exercises by registering a source mid-flight.

Each mutation also yields a :class:`RegistryDiff` naming exactly which
signature blocks of the *old* snapshot the change touched: blocks whose
membership signature involves a changed source, or whose fact set gained or
lost members. The engine's memo is content-addressed (a canonical key *is*
the counting problem, so an entry can never become wrong), but entries whose
block shape the change retired can never be hit again by this lineage;
:func:`invalidate` recomputes precisely those keys from the old spec and
discards them, keeping the shared LRU from silting up with dead blocks under
a long-running churn of registrations. Untouched entries stay — alpha
equivalence means a re-registration under a new name, a permutation of
sources, or a renamed domain still hits them.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SourceError
from repro.model.atoms import Atom
from repro.sources.collection import SourceCollection
from repro.sources.descriptor import SourceDescriptor
from repro.confidence.blocks import IdentityInstance
from repro.confidence.engine import kernel
from repro.confidence.engine.memo import LRUMemo, canonical_key


class RegistrySnapshot:
    """One immutable registry version: a collection, a domain, a spec.

    The block decomposition (:class:`IdentityInstance` + ``CountingSpec``) is
    built lazily on first use and cached — snapshots are cheap to mint and
    only pay for analysis when a request actually computes against them.
    """

    __slots__ = ("version", "collection", "domain", "_lock", "_instance", "_spec")

    def __init__(
        self, version: int, collection: SourceCollection, domain: Sequence
    ):
        self.version = version
        self.collection = collection
        self.domain: Tuple = tuple(domain)
        self._lock = threading.Lock()
        self._instance: Optional[IdentityInstance] = None
        self._spec: Optional[kernel.CountingSpec] = None

    def instance(self) -> IdentityInstance:
        """The snapshot's block decomposition (cached, thread-safe)."""
        with self._lock:
            if self._instance is None:
                self._instance = IdentityInstance(self.collection, self.domain)
            return self._instance

    def spec(self) -> kernel.CountingSpec:
        with self._lock:
            if self._spec is None:
                if self._instance is None:
                    self._instance = IdentityInstance(
                        self.collection, self.domain
                    )
                self._spec = kernel.spec_of(self._instance)
            return self._spec

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
    """What one registry mutation changed, in block terms.

    ``touched_blocks`` indexes blocks of the *old* snapshot whose counting
    problems the change retired; ``full`` marks mutations (domain changes,
    first registration) that touch everything.
    """

    __slots__ = ("old_version", "new_version", "changed_sources",
                 "touched_blocks", "full")

    def __init__(
        self,
        old_version: int,
        new_version: int,
        changed_sources: FrozenSet[str],
        touched_blocks: Tuple[int, ...],
        full: bool = False,
    ):
        self.old_version = old_version
        self.new_version = new_version
        self.changed_sources = changed_sources
        self.touched_blocks = touched_blocks
        self.full = full

    def __repr__(self) -> str:
        scope = "full" if self.full else f"blocks={list(self.touched_blocks)}"
        return (
            f"RegistryDiff(v{self.old_version}->v{self.new_version}, "
            f"sources={sorted(self.changed_sources)}, {scope})"
        )


def diff_snapshots(
    old: RegistrySnapshot,
    new: RegistrySnapshot,
    changed_sources: FrozenSet[str],
) -> RegistryDiff:
    """Compute which old-snapshot blocks a mutation touched.

    A block is touched when its signature contains a changed source or when
    its fact membership differs between the snapshots' decompositions. A
    domain change (or an old snapshot with no decomposable collection)
    degrades to a full diff.
    """
    if old.domain != new.domain or not len(old.collection):
        return RegistryDiff(
            old.version, new.version, changed_sources, (), full=True
        )
    old_instance = old.instance()
    changed_indices = {
        i for i, name in enumerate(old_instance.names) if name in changed_sources
    }
    new_signature_of: Dict[Atom, FrozenSet[str]] = {}
    if len(new.collection):
        new_instance = new.instance()
        for block in new_instance.blocks:
            names = frozenset(
                new_instance.names[i] for i in block.signature
            )
            for f in block.facts:
                new_signature_of[f] = names
    touched: List[int] = []
    for j, block in enumerate(old_instance.blocks):
        names = frozenset(old_instance.names[i] for i in block.signature)
        if block.signature & frozenset(changed_indices):
            touched.append(j)
            continue
        if any(new_signature_of.get(f) != names for f in block.facts):
            touched.append(j)
    return RegistryDiff(
        old.version, new.version, changed_sources, tuple(touched)
    )


def invalidation_tags(
    old: RegistrySnapshot, diff: RegistryDiff
) -> FrozenSet:
    """The canonical memo keys one mutation retired, as bus tags.

    Recomputes, from the old spec, the canonical keys the engine would have
    planned for the denominator and for each touched block's numerator.
    Pushed through :meth:`repro.cache.CacheRegistry.invalidate_tags`, they
    reach the (content-addressed) engine memo by key match — the memo needs
    no stored tags for the bus to retire exactly these entries. An old
    snapshot that was never identity-decomposable keyed nothing.
    """
    if not len(old.collection):
        return frozenset()
    try:
        spec = old.spec()
    except SourceError:
        return frozenset()  # not identity-decomposable; nothing keyed
    blocks = (
        range(spec.n_blocks) if diff.full else diff.touched_blocks
    )
    problems = [kernel.reduce_spec(spec)]
    problems += [kernel.reduce_spec(spec, forced={j: 1}) for j in blocks]
    return frozenset(
        canonical_key(problem) for problem in problems if problem is not None
    )


def invalidate(
    memo: LRUMemo, old: RegistrySnapshot, diff: RegistryDiff
) -> int:
    """Discard the old snapshot's memo entries for touched blocks.

    The direct (single-memo) form of the invalidation bus, used for memos
    that are not enrolled in the process registry — e.g. a private memo a
    test or caller handed to the service. Returns how many entries were
    actually removed (entries never computed, or already evicted, count
    zero).
    """
    removed = 0
    for key in invalidation_tags(old, diff):
        if memo.discard(key):
            removed += 1
    return removed


class SourceRegistry:
    """Thread-safe, versioned registry of source descriptors.

    All mutations return the new :class:`RegistrySnapshot` and the
    :class:`RegistryDiff` against the previous head. Readers call
    :meth:`snapshot` once and hold the result; the head swap is atomic under
    the registry lock, and snapshots are immutable, so readers never observe
    a half-applied mutation.
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
        with self._lock:
            return self._head.version

    # -- mutations --------------------------------------------------------------

    def _swap(
        self, collection: SourceCollection, domain: Sequence,
        changed: FrozenSet[str],
    ) -> Tuple[RegistrySnapshot, RegistryDiff]:
        old = self._head
        new = RegistrySnapshot(old.version + 1, collection, domain)

        # Diffing decomposes both snapshots, interning the new collection's
        # constants and facts into the process-wide symbol table. If the
        # mutation aborts (e.g. an extension fact outside the domain), those
        # IDs would leak — interned by a version that never became head. The
        # exclusive interning lock blocks other threads' interning across the
        # mutate-or-rollback window, making snapshot truncation sound.
        from repro.core.symbols import global_table

        table = global_table()
        with table.exclusive():
            symbols = table.snapshot()
            had_old_instance = old._instance is not None
            try:
                diff = diff_snapshots(old, new, changed)
            except BaseException:
                if not had_old_instance:
                    # The old decomposition was first built during the failed
                    # diff; drop it so nothing retains rolled-back interning.
                    with old._lock:
                        old._instance = None
                        old._spec = None
                table.rollback(symbols)
                raise
        self._head = new
        return new, diff

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
        """Replace the finite domain (touches every block)."""
        with self._lock:
            old = self._head
            names = frozenset(s.name for s in old.collection)
            return self._swap(old.collection, domain, names)
