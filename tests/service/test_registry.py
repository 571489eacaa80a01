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
    rolls the process-wide table back to its pre-mutation snapshot and
    flushes every enrolled cache.

    Each test's source carries constants of its own, in the registry's
    domain but in no extension, so nothing interned them before the
    mutation; the failure is injected after both decompositions, so the
    rollback has something to remove.
    """

    @pytest.fixture
    def fails_after_decomposition(self, monkeypatch):
        """Make a diff raise once both snapshots are decomposed, when the
        decomposition interned this test's constants; returns the constants
        each injected failure saw interned."""
        import repro.service.registry as registry_module
        from repro.core import global_table

        seen = []
        real_diff = registry_module.RegistryDiff

        def diff_fails(*args, **kwargs):
            table = global_table()
            interned = {
                v for v in self.fresh if table.find_constant(v) is not None
            }
            if not interned:
                return real_diff(*args, **kwargs)
            seen.append(interned)
            raise SourceError("injected failure after decomposition")

        monkeypatch.setattr(registry_module, "RegistryDiff", diff_fails)
        return seen

    def registry_with_fresh_constants(self, tag: str) -> SourceRegistry:
        from repro.core import global_table

        self.fresh = (f"rollback-{tag}-1", f"rollback-{tag}-2")
        assert all(global_table().find_constant(v) is None for v in self.fresh)
        return SourceRegistry(
            make_example51_collection(), DOMAIN + list(self.fresh)
        )

    def bad_source(self) -> SourceDescriptor:
        return SourceDescriptor(
            identity_view("V2", "R", 1),
            [fact("V2", value) for value in self.fresh],
            "1/2",
            1,
            name="S2",
        )

    def test_aborted_update_rolls_back_interned_ids(
        self, fails_after_decomposition
    ):
        from repro.cache import cache_registry
        from repro.core import global_table

        registry = self.registry_with_fresh_constants("update")
        registry.snapshot().instance()  # decompose v0 up-front
        table = global_table()
        before = table.snapshot()
        flushes = cache_registry().stats()["rollback_flushes"]
        with pytest.raises(SourceError, match="injected failure"):
            registry.update(self.bad_source())
        assert fails_after_decomposition == [set(self.fresh)]
        assert table.snapshot() == before
        assert all(table.find_constant(v) is None for v in self.fresh)
        assert cache_registry().stats()["rollback_flushes"] == flushes + 1
        # The head never swapped and the registry still works.
        assert registry.version() == 0
        new, _diff = registry.register(s3())
        assert new.version == 1

    def test_aborted_update_drops_old_caches_built_mid_mutation(
        self, fails_after_decomposition
    ):
        from repro.cache import cache_registry
        from repro.core import global_table

        registry = self.registry_with_fresh_constants("midway")
        # Do NOT touch old.instance() first: the old decomposition is built
        # (and its symbols interned) inside the failed mutation itself, so
        # keeping it would retain rolled-back IDs.
        old = registry.snapshot()
        assert old._instance is None
        table = global_table()
        before = table.snapshot()
        flushes = cache_registry().stats()["rollback_flushes"]
        with pytest.raises(SourceError, match="injected failure"):
            registry.update(self.bad_source())
        assert fails_after_decomposition == [set(self.fresh)]
        assert old._instance is None
        assert table.snapshot() == before
        assert all(table.find_constant(v) is None for v in self.fresh)
        assert cache_registry().stats()["rollback_flushes"] == flushes + 1
        # Rebuilding on demand re-interns cleanly.
        covered = {str(f) for f in old.covered_facts()}
        assert covered == {"R('a')", "R('b')", "R('c')"}

    def test_interning_threads_survive_concurrent_aborts(
        self, fails_after_decomposition
    ):
        import threading

        from repro.core import global_table

        registry = self.registry_with_fresh_constants("threads")
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
        assert fails_after_decomposition == [set(self.fresh)] * 50
        assert all(table.find_constant(v) is None for v in self.fresh)
        assert registry.version() == 0


def test_diff_snapshots_repr_smoke():
    registry = make_registry()
    old = registry.snapshot()
    new, diff = registry.register(s3())
    assert "v0->v1" in repr(diff)
    assert "RegistrySnapshot(v1" in repr(new)
    same = diff_snapshots(old, new, frozenset(["S3"]))
    assert same.touched_blocks == diff.touched_blocks
