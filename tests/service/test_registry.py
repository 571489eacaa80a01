"""Versioned registry: copy-on-write snapshots, diffs, memo reuse."""

import pytest

from repro.exceptions import SourceError
from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceDescriptor
from repro.confidence.engine import ConfidenceEngine, LRUMemo
from repro.service import SourceRegistry, diff_snapshots

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]


def make_registry() -> SourceRegistry:
    return SourceRegistry(make_example51_collection(), DOMAIN)


def s3(element: str = "c") -> SourceDescriptor:
    return SourceDescriptor(
        identity_view("V3", "R", 1), [fact("V3", element)], "1/2", 1, name="S3"
    )


class TestSnapshots:
    def test_initial_version_zero(self):
        registry = make_registry()
        snapshot = registry.snapshot()
        assert snapshot.version == 0
        assert len(snapshot.collection) == 2
        assert registry.version() == 0

    def test_register_bumps_version_and_preserves_old_snapshot(self):
        registry = make_registry()
        old = registry.snapshot()
        new, diff = registry.register(s3())
        assert new.version == 1
        assert diff.new_version == 1
        # Copy-on-write: the old snapshot still sees two sources.
        assert len(old.collection) == 2
        assert len(new.collection) == 3
        assert registry.snapshot() is new

    def test_register_duplicate_name_rejected(self):
        registry = make_registry()
        with pytest.raises(SourceError, match="already registered"):
            registry.register(
                SourceDescriptor(
                    identity_view("V9", "R", 1), [fact("V9", "a")], 1, 1,
                    name="S1",
                )
            )

    def test_update_replaces_in_place(self):
        registry = make_registry()
        original = registry.snapshot().collection.by_name("S1")
        registry.update(original.with_bounds(soundness_bound=1))
        updated = registry.snapshot().collection.by_name("S1")
        assert updated.soundness_bound == 1
        assert registry.version() == 1

    def test_update_unknown_name_rejected(self):
        registry = make_registry()
        with pytest.raises(SourceError, match="no source named"):
            registry.update(s3())

    def test_deregister(self):
        registry = make_registry()
        registry.deregister("S1")
        assert len(registry.snapshot().collection) == 1
        with pytest.raises(SourceError):
            registry.deregister("S1")

    def test_covered_facts(self):
        snapshot = make_registry().snapshot()
        covered = {str(f) for f in snapshot.covered_facts()}
        assert covered == {"R('a')", "R('b')", "R('c')"}


class TestDiffs:
    def test_update_touches_only_that_sources_blocks(self):
        registry = make_registry()
        old = registry.snapshot()
        # Example 5.1 blocks: {a}@S1, {b}@S1∩S2, {c}@S2 — updating S2
        # touches the b-block and the c-block, not the a-block.
        _new, diff = registry.update(
            old.collection.by_name("S2").with_bounds(soundness_bound=1)
        )
        assert not diff.full
        instance = old.instance()
        touched_facts = {
            str(f)
            for j in diff.touched_blocks
            for f in instance.blocks[j].facts
        }
        assert touched_facts == {"R('b')", "R('c')"}

    def test_register_disjoint_source_touches_nothing_old(self):
        registry = make_registry()
        _new, diff = registry.register(
            SourceDescriptor(
                identity_view("V4", "R", 1), [fact("V4", "d")], "1/2", 1,
                name="S4",
            )
        )
        # The new source claims only d, previously anonymous: no old
        # block's membership or signature changed.
        assert not diff.full
        assert diff.touched_blocks == ()

    def test_register_overlapping_source_touches_shared_blocks(self):
        registry = make_registry()
        old = registry.snapshot()
        _new, diff = registry.register(s3("a"))  # S3 claims a
        instance = old.instance()
        touched_facts = {
            str(f)
            for j in diff.touched_blocks
            for f in instance.blocks[j].facts
        }
        assert touched_facts == {"R('a')"}

    def test_domain_change_is_full(self):
        registry = make_registry()
        _new, diff = registry.set_domain(["a", "b", "c", "d", "e"])
        assert diff.full

    def test_diff_against_empty_registry_is_full(self):
        registry = SourceRegistry((), DOMAIN)
        _new, diff = registry.register(s3())
        assert diff.full


class TestInvalidation:
    def test_untouched_entries_still_hit_after_unrelated_mutation(self):
        """A mutation retires no memo line: the old snapshot's confidence
        line still hits, and so does a later version equal to it."""
        registry = make_registry()
        old = registry.snapshot()
        memo = LRUMemo(64)
        with ConfidenceEngine(old.instance(), memo=memo) as engine:
            expected = engine.confidences()
        s2 = old.collection.by_name("S2")
        changed, _diff = registry.update(s2.with_bounds(soundness_bound=1))
        restored, _diff = registry.update(s2)
        with ConfidenceEngine(changed.instance(), memo=memo) as engine:
            assert engine.confidences() != expected
        assert len(memo) == 2
        for snapshot in (old, restored):
            with ConfidenceEngine(snapshot.instance(), memo=memo) as engine:
                assert engine.confidences() == expected
                assert engine.stats.tasks_memoized == 1
                assert engine.stats.tasks_dispatched == 0


class TestAbortedMutationSymbolRollback:
    """An aborted mutation must not leak symbol-table IDs (satellite of the
    interned-core refactor): diffing interns the new collection's constants
    and facts, and if the mutation raises before the head swap, the registry
    rolls the process-wide table back to its pre-mutation snapshot.
    """

    def bad_source(self) -> SourceDescriptor:
        # Extension constants far outside the registry domain: the diff's
        # decomposition (new.instance()) raises SourceError mid-mutation,
        # after those constants were interned.
        return SourceDescriptor(
            identity_view("V2", "R", 1),
            [fact("V2", "leaked-xyz"), fact("V2", "leaked-uvw")],
            "1/2",
            1,
            name="S2",
        )

    def test_aborted_update_rolls_back_interned_ids(self):
        from repro.core import global_table

        registry = make_registry()
        registry.snapshot().instance()  # decompose v0 up-front
        table = global_table()
        before = table.snapshot()
        with pytest.raises(SourceError, match="outside the domain"):
            registry.update(self.bad_source())
        assert table.snapshot() == before
        assert table.find_constant("leaked-xyz") is None
        assert table.find_constant("leaked-uvw") is None
        # The head never swapped and the registry still works.
        assert registry.version() == 0
        new, _diff = registry.register(s3())
        assert new.version == 1

    def test_aborted_update_drops_old_caches_built_mid_mutation(self):
        from repro.core import global_table

        registry = make_registry()
        # Do NOT touch old.instance() first: the old decomposition is built
        # (and its symbols interned) inside the failed mutation itself, so
        # keeping it would retain rolled-back IDs.
        old = registry.snapshot()
        assert old._instance is None
        before = global_table().snapshot()
        with pytest.raises(SourceError, match="outside the domain"):
            registry.update(self.bad_source())
        assert old._instance is None
        assert global_table().snapshot() == before
        # Rebuilding on demand re-interns cleanly.
        covered = {str(f) for f in old.covered_facts()}
        assert covered == {"R('a')", "R('b')", "R('c')"}

    def test_interning_threads_survive_concurrent_aborts(self):
        import threading

        from repro.core import global_table

        registry = make_registry()
        registry.snapshot().instance()
        table = global_table()
        stop = threading.Event()
        errors = []

        def intern_loop():
            i = 0
            while not stop.is_set():
                value = f"concurrent-{i % 20}"
                cid = table.constant(value)
                if table.constant_value(cid) != value:
                    errors.append("interned ID remapped by rollback")
                i += 1

        thread = threading.Thread(target=intern_loop)
        thread.start()
        try:
            for _ in range(50):
                with pytest.raises(SourceError):
                    registry.update(self.bad_source())
        finally:
            stop.set()
            thread.join()
        assert errors == []
        assert registry.version() == 0


def test_diff_snapshots_repr_smoke():
    registry = make_registry()
    old = registry.snapshot()
    new, diff = registry.register(s3())
    assert "v0->v1" in repr(diff)
    assert "RegistrySnapshot(v1" in repr(new)
    same = diff_snapshots(old, new, frozenset(["S3"]))
    assert same.touched_blocks == diff.touched_blocks
