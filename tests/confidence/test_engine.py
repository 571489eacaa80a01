"""ConfidenceEngine: executor contract, caching modes, stats, fallback."""

from fractions import Fraction

import pytest

from repro.exceptions import SourceError
from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.sources import SourceCollection, SourceDescriptor
from repro.confidence import (
    BlockCounter,
    ConfidenceEngine,
    IdentityInstance,
    covered_fact_confidences,
)
from repro.confidence.engine import (
    LRUMemo,
    ProcessExecutor,
    SerialExecutor,
    canonical_key,
    kernel,
    make_executor,
)
from repro.consistency import (
    check_consistency,
    check_consistency_parallel,
    independent_groups,
)


def example51() -> SourceCollection:
    return SourceCollection(
        [
            SourceDescriptor(
                identity_view("V1", "R", 1),
                [fact("V1", "a"), fact("V1", "b")],
                "1/2", "1/2", name="S1",
            ),
            SourceDescriptor(
                identity_view("V2", "R", 1),
                [fact("V2", "b"), fact("V2", "c")],
                "1/2", "1/2", name="S2",
            ),
        ]
    )


DOMAIN = ["a", "b", "c", "d1", "d2"]


def serial_reference():
    return covered_fact_confidences(example51(), DOMAIN)


def test_serial_engine_matches_covered_fact_confidences():
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        assert engine.confidences() == serial_reference()
        assert engine.confidences()[fact("R", "b")] == Fraction(8, 9)


def test_parallel_engine_matches_serial_exactly():
    reference = serial_reference()
    with ConfidenceEngine(
        example51(), DOMAIN, workers=2, cache_size=0
    ) as engine:
        assert engine.confidences() == reference


def test_joint_and_single_confidence_match_block_counter():
    counter = BlockCounter(IdentityInstance(example51(), DOMAIN))
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        for name in ("a", "b", "c", "d1"):
            assert engine.confidence(fact("R", name)) == counter.confidence(
                fact("R", name)
            )
        pair = [fact("R", "a"), fact("R", "c")]
        assert engine.joint_confidence(pair) == counter.joint_confidence(pair)


def test_count_worlds_and_consistency():
    with ConfidenceEngine(example51(), ["a", "b", "c"], cache_size=0) as engine:
        assert engine.count_worlds() == 5  # Example 5.1, m = 0: 2m + 5
        assert engine.is_consistent()


def test_cache_disabled_recomputes_every_task():
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        engine.confidences()
        engine.confidences()
        assert engine.memo is None
        assert engine.stats.tasks_memoized == 0
        assert engine.stats.tasks_dispatched > 0


def test_private_memo_serves_second_pass():
    memo = LRUMemo(64)
    with ConfidenceEngine(example51(), DOMAIN, memo=memo) as engine:
        first = engine.confidences()
        dispatched_cold = engine.stats.tasks_dispatched
        second = engine.confidences()
        assert first == second
        assert engine.stats.tasks_dispatched == dispatched_cold
        assert engine.stats.tasks_memoized > 0


class RecordingExecutor(SerialExecutor):
    """A serial executor that keeps every task it is given."""

    def __init__(self):
        super().__init__()
        self.tasks = []

    def map(self, fn, items):
        items = list(items)
        self.tasks.extend(items)
        return super().map(fn, items)


def test_executor_runs_montecarlo_chunks_only():
    """Exact counting never reaches the executor; each Monte-Carlo chunk
    is one task."""
    executor = RecordingExecutor()
    with ConfidenceEngine(
        example51(), DOMAIN, executor=executor, cache_size=0
    ) as engine:
        engine.confidences()
        engine.confidence(fact("R", "a"))
        engine.joint_confidence([fact("R", "a"), fact("R", "c")])
        engine.count_worlds()
        assert engine.stats.tasks_dispatched > 0
        assert executor.tasks == []
        engine.estimate_confidences(
            [fact("R", "b")], samples=250, seed=1, samples_per_chunk=100
        )
    assert len(executor.tasks) == 3


def record_sweeps(monkeypatch):
    """Record every ``(wire, track)`` the engine hands the kernel."""
    sweeps = []
    solve_wire = kernel.solve_wire

    def recording(wire, track=()):
        sweeps.append((wire, track))
        return solve_wire(wire, track)

    monkeypatch.setattr(kernel, "solve_wire", recording)
    return sweeps


def asymmetric_example51() -> SourceCollection:
    """Example 5.1 with S2 fully sound: no two blocks share a memo key."""
    collection = example51()
    return SourceCollection(
        [
            collection.sources[0],
            collection.sources[1].with_bounds(soundness_bound=1),
        ]
    )


def test_confidences_is_one_sweep_tracking_every_block(monkeypatch):
    sweeps = record_sweeps(monkeypatch)
    with ConfidenceEngine(
        asymmetric_example51(), DOMAIN, cache_size=0
    ) as engine:
        engine.confidences()
        assert engine.stats.tasks_submitted == 1 + len(engine.instance.blocks)
        assert engine.stats.tasks_dispatched == 1
    [(_wire, track)] = sweeps
    assert track == tuple(range(len(engine.instance.blocks)))


@pytest.mark.parametrize("missed_blocks", [(), (1,), (0, 2)])
def test_partial_memo_hit_sweeps_once_for_the_missed_keys(
    missed_blocks, monkeypatch
):
    """Denominator key discarded, block keys cached except *missed_blocks*."""
    collection = asymmetric_example51()
    memo = LRUMemo(64)
    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        expected = engine.confidences()
        spec = engine.spec
    denominator = kernel.reduce_spec(spec)
    forced = [
        kernel.reduce_spec(spec, forced={j: 1}) for j in range(spec.n_blocks)
    ]
    block_keys = [canonical_key(problem) for problem in forced]
    assert len(set(block_keys)) == spec.n_blocks == 3
    assert memo.discard(canonical_key(denominator))
    for j in missed_blocks:
        assert memo.discard(block_keys[j])

    sweeps = record_sweeps(monkeypatch)
    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        assert engine.confidences() == expected
        assert engine.stats.tasks_submitted == 1 + spec.n_blocks
        assert engine.stats.tasks_memoized == spec.n_blocks - len(missed_blocks)
        assert engine.stats.tasks_dispatched == 1
    [(_wire, track)] = sweeps
    assert track == missed_blocks
    assert memo.peek(canonical_key(denominator)) == kernel.solve(denominator)[0]
    for j in missed_blocks:
        assert memo.peek(block_keys[j]) == kernel.solve(forced[j])[0]


def test_stats_sanity():
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        engine.confidences()
        stats = engine.stats
        assert stats.executor == "serial"
        assert stats.tasks_submitted >= stats.tasks_dispatched > 0
        assert stats.worlds_counted > 0
        assert stats.dp_states > 0
        assert set(stats.stages) >= {"decompose", "plan", "count", "assemble"}
        assert all(s.seconds >= 0 for s in stats.stages.values())
        report = stats.render()
        assert "executor: serial" in report
        assert "counting tasks" in report


def test_montecarlo_estimates_are_executor_independent():
    facts = [fact("R", "a"), fact("R", "b"), fact("R", "d1")]
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        serial = engine.estimate_confidences(
            facts, samples=500, seed=3, samples_per_chunk=100
        )
    with ConfidenceEngine(
        example51(), DOMAIN, workers=2, cache_size=0
    ) as engine:
        parallel = engine.estimate_confidences(
            facts, samples=500, seed=3, samples_per_chunk=100
        )
    assert serial == parallel  # bit-identical floats, not just close


def test_degraded_fallback_stays_correct(monkeypatch):
    import multiprocessing

    def refuse(method=None):
        raise OSError("no processes in this sandbox")

    facts = [fact("R", "a"), fact("R", "b"), fact("R", "d1")]
    kwargs = dict(samples=500, seed=3, samples_per_chunk=100)
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        serial = engine.estimate_confidences(facts, **kwargs)
    executor = ProcessExecutor(workers=2)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    with ConfidenceEngine(
        example51(), DOMAIN, executor=executor, cache_size=0
    ) as engine:
        assert engine.estimate_confidences(facts, **kwargs) == serial
        assert executor.degraded


def test_make_executor_selects_by_workers_and_mode():
    assert isinstance(make_executor(0), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(4), ProcessExecutor)


def test_non_identity_views_are_rejected():
    collection = SourceCollection(
        [
            SourceDescriptor(
                parse_rule("V1(x) <- R(x), T(x)"), [fact("V1", "a")], 1, 1
            )
        ]
    )
    with pytest.raises(SourceError):
        ConfidenceEngine(collection, ["a", "b"])


def multi_relation_collection() -> SourceCollection:
    """Two independent groups: identity sources on R and on T."""
    return SourceCollection(
        [
            SourceDescriptor(
                identity_view("V1", "R", 1),
                [fact("V1", "a"), fact("V1", "b")],
                "1/2", "1/2", name="S1",
            ),
            SourceDescriptor(
                identity_view("V2", "R", 1),
                [fact("V2", "b")],
                "1/3", "1/2", name="S2",
            ),
            SourceDescriptor(
                identity_view("W1", "T", 1),
                [fact("W1", "x"), fact("W1", "y")],
                "1/2", "1", name="S3",
            ),
        ]
    )


def test_independent_groups_split_by_relation():
    groups = independent_groups(multi_relation_collection())
    names = [sorted(s.name for s in group) for group in groups]
    assert names == [["S1", "S2"], ["S3"]]


def test_parallel_consistency_matches_serial():
    collection = multi_relation_collection()
    serial = check_consistency(collection)
    parallel = check_consistency_parallel(collection, workers=2)
    assert parallel.consistent == serial.consistent
    assert parallel.consistent
    assert parallel.method.startswith("independent-groups[2]")
    # The merged witness must itself be admitted by the full collection.
    assert collection.admits(parallel.witness)


def test_parallel_consistency_single_group_delegates():
    collection = example51()
    result = check_consistency_parallel(collection, workers=2)
    assert result.consistent == check_consistency(collection).consistent
    assert not result.method.startswith("independent-groups")
