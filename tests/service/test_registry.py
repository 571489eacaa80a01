"""Versioned registry: copy-on-write snapshots, validate-then-swap,
memo reuse."""

import re
import threading

import pytest

from repro.core import global_table
from repro.exceptions import SourceError
from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.sources import SourceDescriptor
from repro.confidence.engine import ConfidenceEngine, LRUMemo
from repro.service import MediatorService, SourceRegistry

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
NOT_IDENTITY = re.escape(
    "IdentityInstance requires all views to be identities over one global "
    "relation (Section 5.1 special case)"
)


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


class TestRejectedMutations:
    """A mutation checks the new collection by value, then swaps the head.

    An invalid collection (a non-identity view, an extension constant
    outside the domain) raises ``SourceError`` with the decomposition's own
    message before the head moves, and interns nothing. Each test's bad
    source carries constants of its own, so nothing interned them before.
    """

    @staticmethod
    def fresh(tag: str) -> str:
        value = f"rejected-{tag}"
        assert global_table().find_constant(value) is None
        return value

    @staticmethod
    def outside(value: str) -> str:
        return re.escape(
            f"extension fact R({value!r}) uses constants outside the "
            f"domain: [Constant({value!r})]"
        )

    def assert_rejected(self, registry, mutate, match):
        table = global_table()
        head = registry.snapshot()
        before = table.counts()
        with pytest.raises(SourceError, match=match):
            mutate()
        assert registry.snapshot() is head
        assert registry.version() == head.version
        assert table.counts() == before

    def test_register_outside_the_domain_into_an_empty_registry(self):
        value = self.fresh("register")
        registry = SourceRegistry((), DOMAIN)
        source = SourceDescriptor(
            identity_view("V9", "R", 1), [fact("V9", value)], 1, 1, name="S9"
        )
        self.assert_rejected(
            registry, lambda: registry.register(source), self.outside(value)
        )

    def test_register_a_non_identity_view_into_an_empty_registry(self):
        registry = SourceRegistry((), DOMAIN)
        source = SourceDescriptor(
            parse_rule("V9(x) <- R(x, y)"), [fact("V9", "a")], 1, 1,
            name="S9",
        )
        self.assert_rejected(
            registry, lambda: registry.register(source), NOT_IDENTITY
        )

    def test_set_domain_that_drops_an_extension_constant(self):
        registry = make_registry()
        self.assert_rejected(
            registry,
            lambda: registry.set_domain(["a", "b", "d"]),
            self.outside("c"),
        )

    @pytest.mark.parametrize("build", [SourceRegistry, MediatorService])
    def test_construction_over_an_invalid_collection(self, build):
        value = self.fresh(f"build-{build.__name__}")
        collection = make_example51_collection().extended(
            SourceDescriptor(
                identity_view("V9", "R", 1), [fact("V9", value)], 1, 1,
                name="S9",
            )
        )
        table = global_table()
        before = table.counts()
        with pytest.raises(SourceError, match=self.outside(value)):
            build(collection, DOMAIN)
        assert table.counts() == before

    def bad_update(self, tag: str):
        """A registry whose domain holds one of two fresh constants, and an
        update of S2 that claims both."""
        inside, outside = self.fresh(f"{tag}-in"), self.fresh(f"{tag}-out")
        registry = SourceRegistry(make_example51_collection(), DOMAIN + [inside])
        source = SourceDescriptor(
            identity_view("V2", "R", 1),
            [fact("V2", inside), fact("V2", outside)],
            "1/2",
            1,
            name="S2",
        )
        return registry, source, outside

    def test_rejected_update_interns_nothing(self):
        registry, source, outside = self.bad_update("update")
        registry.snapshot().instance()  # decompose v0 up-front
        self.assert_rejected(
            registry, lambda: registry.update(source), self.outside(outside)
        )
        new, _diff = registry.register(s3())
        assert new.version == 1

    def test_a_mutation_builds_no_instance(self):
        registry, source, outside = self.bad_update("lazy")
        old = registry.snapshot()
        self.assert_rejected(
            registry, lambda: registry.update(source), self.outside(outside)
        )
        new, _diff = registry.register(s3())
        assert old._instance is None and new._instance is None
        covered = {str(f) for f in old.covered_facts()}
        assert covered == {"R('a')", "R('b')", "R('c')"}

    def test_interning_threads_survive_rejections(self):
        registry, source, outside = self.bad_update("threads")
        table = global_table()
        stop = threading.Event()
        errors = []

        def intern_loop():
            i = 0
            while not stop.is_set():
                value = f"concurrent-{i % 20}"
                cid = table.constant(value)
                if table.constant_value(cid) != value:
                    errors.append("interned ID remapped")
                i += 1

        thread = threading.Thread(target=intern_loop)
        thread.start()
        try:
            for _ in range(50):
                with pytest.raises(SourceError):
                    registry.update(source)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors == []
        assert registry.version() == 0
        assert table.find_constant(outside) is None


def test_diff_snapshots_repr_smoke():
    registry = make_registry()
    new, diff = registry.register(s3())
    assert repr(diff) == "RegistryDiff(v0->v1, sources=['S3'])"
    assert "RegistrySnapshot(v1" in repr(new)
