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
from repro.confidence.engine import core as engine_core
from repro.confidence.engine import (
    LRUMemo,
    ProcessExecutor,
    SerialExecutor,
    canonical_key,
    kernel,
    make_executor,
)
from repro.confidence.engine.memo import CONFIDENCES
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


def record_keys(monkeypatch):
    """Record every problem the engine keys (the name the engine calls)."""
    keyed = []
    key_of = engine_core.canonical_key

    def recording(problem):
        keyed.append(problem)
        return key_of(problem)

    monkeypatch.setattr(engine_core, "canonical_key", recording)
    return keyed


def asymmetric_example51() -> SourceCollection:
    """Example 5.1 with S2 fully sound: no two blocks are alpha-equivalent."""
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
        assert engine.stats.tasks_submitted == 1
        assert engine.stats.tasks_dispatched == 1
    [(_wire, track)] = sweeps
    assert track == tuple(range(len(engine.instance.blocks)))


def test_confidences_keys_once_on_a_miss_and_on_a_hit(monkeypatch):
    """One key per call, hit or miss, whatever the number of blocks; the
    line holds the count and every block's numerator in key order."""
    collection = asymmetric_example51()
    memo = LRUMemo(64)
    keyed = record_keys(monkeypatch)
    sweeps = record_sweeps(monkeypatch)
    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        expected = engine.confidences()
        problem = kernel.reduce_spec(engine.spec)
    assert keyed == [problem] and len(sweeps) == 1
    key, order = canonical_key(problem)
    hit, (count, numerators) = memo.lookup((CONFIDENCES, key))
    assert hit and memo.hits == 1  # this lookup's own hit
    assert len(memo) == 1
    assert count == kernel.solve(problem).count
    assert numerators == kernel.solve(problem, order).containing
    assert [sweep[1] for sweep in sweeps] == [order]

    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        assert engine.confidences() == expected
        assert len(keyed) == 2 and len(sweeps) == 1  # a hit: no sweep
        assert engine.stats.tasks_submitted == engine.stats.tasks_memoized == 1
        assert engine.stats.tasks_dispatched == 0
        # The engine keeps its result: a second call does not even key.
        again = engine.confidences()
        assert again == expected and again is not engine.confidences()
        assert len(keyed) == 2
        assert engine.stats.tasks_submitted == engine.stats.tasks_memoized == 3


@pytest.mark.parametrize("missed_blocks", [(), (1,), (0, 2)])
def test_partial_memo_hit_sweeps_once_for_the_missed_keys(
    missed_blocks, monkeypatch
):
    """Count lines for the denominator and every block except
    *missed_blocks* are cached. They never answer confidences(): its one
    key misses, one sweep tracks every block, and no block line is
    written."""
    collection = asymmetric_example51()
    memo = LRUMemo(64)
    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        spec = engine.spec
        for block in engine.instance.blocks:
            engine.confidence(next(iter(block.facts)))
    with ConfidenceEngine(collection, DOMAIN, cache_size=0) as cold:
        expected = cold.confidences()
    denominator = kernel.reduce_spec(spec)
    forced = [
        kernel.reduce_spec(spec, forced={j: 1}) for j in range(spec.n_blocks)
    ]
    block_keys = [canonical_key(problem)[0] for problem in forced]
    assert len(set(block_keys)) == spec.n_blocks == 3
    assert canonical_key(denominator)[0] in memo
    for j in missed_blocks:
        assert memo.invalidate_tags([block_keys[j]]) == 1

    keyed = record_keys(monkeypatch)
    sweeps = record_sweeps(monkeypatch)
    with ConfidenceEngine(collection, DOMAIN, memo=memo) as engine:
        assert engine.confidences() == expected
        assert engine.stats.tasks_submitted == 1
        assert engine.stats.tasks_memoized == 0
        assert engine.stats.tasks_dispatched == 1
    key, order = canonical_key(denominator)
    assert keyed == [denominator]
    assert [sweep[1] for sweep in sweeps] == [order]
    assert sorted(order) == list(range(spec.n_blocks))
    assert (CONFIDENCES, key) in memo
    assert memo.lookup(key) == (True, kernel.solve(denominator).count)
    for j, block_key in enumerate(block_keys):
        if j in missed_blocks:
            assert block_key not in memo
        else:
            expected_count = kernel.solve(forced[j]).count
            assert memo.lookup(block_key) == (True, expected_count)


def test_count_questions_keep_one_key_each(monkeypatch):
    keyed = record_keys(monkeypatch)
    with ConfidenceEngine(example51(), DOMAIN, memo=LRUMemo(64)) as engine:
        engine.count_worlds()
        assert len(keyed) == 1
        engine.joint_confidence([fact("R", "a"), fact("R", "c")])
        assert len(keyed) == 3  # the denominator (a hit) and one numerator
        # Count lines and the confidence line never share a key.
        engine.confidences()
        assert len(keyed) == 4 and engine.stats.tasks_dispatched == 3


def tied_collection(names=("S1", "S2", "S3", "S4"), values="abcpqxyd"):
    """S1 and S2 have equal profiles but are told apart by S3 and S4, so
    the key's permutation search runs and their blocks differ."""
    a, b, c, p, q, x, y, _d = values
    views = [identity_view(f"V{k}", "R", 1) for k in range(1, 5)]
    extensions = [(a, b, p), (b, c, q), (p, x), (q, y)]
    bounds = [(0, "1/3"), (0, "1/3"), (0, 1), ("1/4", "1/2")]
    return [
        SourceDescriptor(
            view, [fact(view.head.relation, v) for v in extension],
            completeness, soundness, name=name,
        )
        for view, extension, (completeness, soundness), name in zip(
            views, extensions, bounds, names
        )
    ]


def test_alpha_equivalent_instance_hits_the_first_line(monkeypatch):
    from repro.confidence.engine import memo as memo_module

    domain = list("abcpqxyd")
    sources = tied_collection()
    renamed_domain = [f"{v}2" for v in domain]
    renamed = tied_collection(names=("T1", "T2", "T3", "T4"),
                              values=renamed_domain)
    permuted = SourceCollection([renamed[k] for k in (3, 1, 2, 0)])
    renderings = []
    render = memo_module._render

    def recording(*args):
        renderings.append(args)
        return render(*args)

    monkeypatch.setattr(memo_module, "_render", recording)
    memo = LRUMemo(64)
    with ConfidenceEngine(SourceCollection(sources), domain, memo=memo) as first:
        original = first.confidences()
    assert len(renderings) > 1  # the tied sources were permuted
    # Non-vacuous: the tied sources' own blocks have different confidences.
    assert original[fact("R", "a")] != original[fact("R", "c")]
    with ConfidenceEngine(permuted, renamed_domain, memo=memo) as second:
        got = second.confidences()
        assert second.stats.tasks_memoized == 1
        assert second.stats.tasks_dispatched == 0
    with ConfidenceEngine(permuted, renamed_domain, cache_size=0) as cold:
        assert got == cold.confidences()
    assert got == {
        fact("R", f"{f.args[0].value}2"): c for f, c in original.items()
    }


def test_example51_on_a_miss_and_on_a_hit():
    from tests.conftest import make_example51_collection

    expected = {
        fact("R", "a"): Fraction(4, 7),
        fact("R", "b"): Fraction(6, 7),
        fact("R", "c"): Fraction(4, 7),
    }
    memo = LRUMemo(64)
    for hit in (0, 1):
        with ConfidenceEngine(
            make_example51_collection(), ["a", "b", "c", "d1"], memo=memo
        ) as engine:
            assert engine.confidences() == expected
            assert engine.stats.worlds_counted == 7
            assert engine.stats.tasks_memoized == hit


def test_confidence_line_is_priced_above_a_count_line():
    from repro.confidence.engine.memo import _memo_sizeof

    memo = LRUMemo(64, name="priced", sizeof=_memo_sizeof)
    with ConfidenceEngine(asymmetric_example51(), DOMAIN, memo=memo) as engine:
        engine.count_worlds()
        count_line = memo.bytes
        engine.confidences()
        confidence_line = memo.bytes - count_line
    assert len(memo) == 2
    assert confidence_line > count_line > 0


def test_stats_sanity():
    with ConfidenceEngine(example51(), DOMAIN, cache_size=0) as engine:
        engine.confidences()
        stats = engine.stats
        assert stats.executor == "serial"
        assert stats.tasks_submitted == stats.tasks_dispatched == 1
        assert stats.worlds_counted > 0
        assert stats.dp_states > 0
        assert set(stats.stages) == {"decompose", "count", "assemble"}
        assert all(s.seconds >= 0 for s in stats.stages.values())
        report = stats.render()
        assert "executor: serial" in report
        assert "counting tasks" in report
    with ConfidenceEngine(example51(), DOMAIN, memo=LRUMemo(8)) as engine:
        engine.confidences()
        assert "plan" in engine.stats.stages  # keying and lookup


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
