"""Versioned registry: copy-on-write snapshots, diffs, memo invalidation."""

import pytest

from repro.exceptions import SourceError
from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceDescriptor
from repro.confidence.engine import ConfidenceEngine, LRUMemo
from repro.service import SourceRegistry, diff_snapshots, invalidate

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
    def test_invalidate_discards_touched_block_keys(self):
        registry = make_registry()
        old = registry.snapshot()
        memo = LRUMemo(64)
        with ConfidenceEngine(old.instance(), memo=memo) as engine:
            engine.confidences()  # populate: denominator + 3 block keys
        populated = len(memo)
        assert populated >= 2
        _new, diff = registry.update(
            old.collection.by_name("S2").with_bounds(soundness_bound=1)
        )
        removed = invalidate(memo, old, diff)
        # Denominator + the two S2 blocks go; the a-block entry stays.
        assert removed == 3
        assert len(memo) == populated - removed

    def test_full_diff_discards_everything_planned(self):
        registry = make_registry()
        old = registry.snapshot()
        memo = LRUMemo(64)
        with ConfidenceEngine(old.instance(), memo=memo) as engine:
            engine.confidences()
        populated = len(memo)
        _new, diff = registry.set_domain(["a", "b", "c", "d", "e"])
        removed = invalidate(memo, old, diff)
        assert removed == populated
        assert len(memo) == 0

    def test_invalidate_empty_old_collection_is_noop(self):
        registry = SourceRegistry((), DOMAIN)
        old = registry.snapshot()
        memo = LRUMemo(8)
        _new, diff = registry.register(s3())
        assert invalidate(memo, old, diff) == 0

    def test_untouched_entries_still_hit_after_unrelated_mutation(self):
        # Asymmetric bounds so S1's and S2's singleton blocks do NOT share
        # a canonical key (in Example 5.1 proper they are alpha-equivalent
        # and legitimately share one cache line).
        from repro.sources import SourceCollection

        collection = SourceCollection([
            SourceDescriptor(
                identity_view("V1", "R", 1),
                [fact("V1", "a"), fact("V1", "b")], "1/2", "1/2", name="S1",
            ),
            SourceDescriptor(
                identity_view("V2", "R", 1),
                [fact("V2", "b"), fact("V2", "c")], "1/2", 1, name="S2",
            ),
        ])
        registry = SourceRegistry(collection, DOMAIN)
        old = registry.snapshot()
        memo = LRUMemo(64)
        with ConfidenceEngine(old.instance(), memo=memo) as engine:
            engine.confidences()
        _new, diff = registry.update(
            old.collection.by_name("S2").with_bounds(completeness_bound=1)
        )
        invalidate(memo, old, diff)
        survivors = len(memo)
        assert survivors >= 1  # the a-block key survived
        # Recomputing the *old* snapshot hits the surviving entries.
        with ConfidenceEngine(old.instance(), memo=memo) as engine:
            engine.confidences()
            assert engine.stats.tasks_memoized >= survivors


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
