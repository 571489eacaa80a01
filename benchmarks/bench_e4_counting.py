"""E4 — counting methods: exact enumeration vs blocks vs Monte Carlo.

Section 5.1 observes the confidence computation is exponential "at least in
principle". This experiment quantifies the three routes we implement:

* brute-force enumeration of the 0/1 solutions of Γ (the paper's method);
* the signature-block DP (exact, polynomial in the fact space here);
* Monte-Carlo estimation from the exact uniform world sampler
  (error vs sample budget).
"""

import random
import time

from repro.model import fact
from repro.confidence import (
    BlockCounter,
    GammaSystem,
    IdentityInstance,
    WorldSampler,
)
from repro.workloads.random_sources import consistent_identity_collection

from benchmarks.conftest import write_table


def instance_of_size(universe: int, seed: int = 1) -> IdentityInstance:
    # Positive slack keeps poss(S) genuinely uncertain: with slack 0 the
    # declared bounds equal the measured quality and often pin a single
    # world, making confidences degenerate (all 0/1).
    collection, _, domain = consistent_identity_collection(
        3, universe, max(2, universe // 2), slack=0.25, rng=random.Random(seed)
    )
    return IdentityInstance(collection, domain)


def test_e4_exact_vs_blocks_table(benchmark, results_dir):
    """Crossover: brute force explodes, block counting stays flat."""

    def sweep():
        rows = []
        for universe in (6, 10, 14, 18):
            instance = instance_of_size(universe)
            target = sorted(
                instance.blocks[-1].facts
            )[0] if instance.blocks else fact("R", "e0")

            start = time.perf_counter()
            block_confidence = BlockCounter(instance).confidence(target)
            block_time = time.perf_counter() - start

            if universe <= 14:
                gamma = GammaSystem(instance)
                start = time.perf_counter()
                brute_confidence = gamma.confidence(target)
                brute_time = time.perf_counter() - start
                assert brute_confidence == block_confidence
                brute_cell = f"{brute_time * 1000:.1f} ms"
            else:
                brute_cell = f"(2^{universe} worlds — skipped)"
            rows.append(
                [
                    universe,
                    instance.fact_space_size,
                    f"{block_time * 1000:.2f} ms",
                    brute_cell,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e4_exact_vs_blocks",
        "E4a: brute-force Gamma enumeration vs signature-block counting",
        ["|dom|", "N (facts)", "block counting", "brute force"],
        rows,
        notes=["both methods agree exactly wherever brute force is feasible"],
    )


def test_e4_montecarlo_error_table(benchmark, results_dir):
    """MC estimate error vs sample budget against the exact confidence."""

    def sweep():
        instance = instance_of_size(12, seed=4)
        counter = BlockCounter(instance)
        # pick a fact with interior confidence so the MC error is visible
        target = None
        exact = 1.0
        for block in instance.blocks:
            candidate = block.facts[0]
            value = float(counter.confidence(candidate))
            if 0.05 < value < 0.95:
                target, exact = candidate, value
                break
        if target is None:  # fall back to the least-certain covered fact
            target = min(
                (b.facts[0] for b in instance.blocks),
                key=lambda f: float(counter.confidence(f)),
            )
            exact = float(counter.confidence(target))
        rows = []
        for samples in (100, 1000, 10000):
            sampler = WorldSampler(instance, random.Random(7))
            start = time.perf_counter()
            estimate = sampler.estimate_confidence(target, samples)
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    samples,
                    f"{estimate:.4f}",
                    f"{exact:.4f}",
                    f"{abs(estimate - exact):.4f}",
                    f"{elapsed * 1000:.1f} ms",
                ]
            )
        # error at the largest budget should be small
        assert abs(float(rows[-1][1]) - exact) < 0.03
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e4_montecarlo",
        "E4b: Monte-Carlo confidence estimation (exact uniform sampler)",
        ["samples", "estimate", "exact", "abs error", "time"],
        rows,
        notes=["error decays ~ 1/sqrt(samples), as expected"],
    )


def test_e4_block_counting_speed(benchmark):
    """Steady-state timing of the block DP on a 3-source instance."""
    instance = instance_of_size(16, seed=2)
    target = instance.blocks[0].facts[0]
    benchmark(lambda: BlockCounter(instance).confidence(target))


def test_e4_sampler_throughput(benchmark):
    """Worlds sampled per second (sampler setup amortized)."""
    instance = instance_of_size(16, seed=3)
    sampler = WorldSampler(instance, random.Random(11))
    benchmark(sampler.sample)


def test_e4_one_sweep_speedup(benchmark, results_dir):
    """One tracked sweep vs one sweep per block, 5-source instance (E4c).

    The engine counts every confidence of an instance with one kernel sweep
    that tracks each signature block's moment. The reference is the work of
    the per-block route, run serially: the denominator plus one
    ``forced={j: 1}`` solve per block. The engine must beat it, with
    identical exact Fractions.
    """
    from fractions import Fraction

    from repro.confidence.engine import ConfidenceEngine, available_cpus, kernel

    collection, _, domain = consistent_identity_collection(
        5, 40, 20, slack=0.25, rng=random.Random(11)
    )
    instance = IdentityInstance(collection, domain)
    spec = kernel.spec_of(instance)

    def per_block_reference():
        denominator = kernel.solve(kernel.reduce_spec(spec))[0]
        out = {}
        for j, block in enumerate(instance.blocks):
            forced = kernel.reduce_spec(spec, forced={j: 1})
            confidence = Fraction(kernel.solve(forced)[0], denominator)
            for f in block.facts:
                out[f] = confidence
        return out

    def run():
        start = time.perf_counter()
        reference = per_block_reference()
        reference_time = time.perf_counter() - start
        with ConfidenceEngine(instance, cache_size=0) as serial_engine:
            start = time.perf_counter()
            serial_result = serial_engine.confidences()
            serial_time = time.perf_counter() - start
            serial_tasks = serial_engine.stats.tasks_dispatched
        # identical exact Fractions on both routes
        assert serial_result == reference
        return (
            (reference_time, 1 + len(instance.blocks)),
            (serial_time, serial_tasks),
        )

    reference, serial = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = reference[0] / serial[0]
    # the acceptance bar: one sweep beats one sweep per block
    assert speedup > 1.05, (
        f"one-sweep engine not faster than per-block solves: "
        f"{serial[0]:.2f}s vs {reference[0]:.2f}s"
    )
    write_table(
        "e4_parallel",
        "E4c: one tracked sweep vs one sweep per block "
        f"(5 sources, |dom|=40, {len(instance.blocks)} blocks)",
        ["route", "sweeps", "wall time", "speedup"],
        [
            ["per-block solves", reference[1], f"{reference[0]:.2f} s", "1.00x"],
            ["engine", serial[1], f"{serial[0]:.2f} s", f"{speedup:.2f}x"],
        ],
        notes=[
            f"host CPUs available: {available_cpus()}",
            "results are identical exact Fractions on both routes",
            "per-block solves: the denominator plus one forced={j: 1} solve "
            "per block, serially (the engine's work before one-sweep counting)",
        ],
    )


def test_e4_parallel_montecarlo(benchmark, results_dir):
    """Serial vs parallel Monte-Carlo estimation, fixed seed (E4d).

    The sample budget is split into fixed-size chunks with per-chunk
    deterministic seeds, so serial and parallel runs return bit-identical
    estimates; only the wall clock changes.
    """
    from repro.confidence.engine import ConfidenceEngine, available_cpus

    instance = instance_of_size(12, seed=4)
    facts = [block.facts[0] for block in instance.blocks]
    samples = 20_000

    def run():
        with ConfidenceEngine(instance, workers=0, cache_size=0) as serial_engine:
            start = time.perf_counter()
            serial_est = serial_engine.estimate_confidences(facts, samples, seed=7)
            serial_time = time.perf_counter() - start
        with ConfidenceEngine(
            instance, workers=4, cache_size=0
        ) as parallel_engine:
            start = time.perf_counter()
            parallel_est = parallel_engine.estimate_confidences(
                facts, samples, seed=7
            )
            parallel_time = time.perf_counter() - start
        assert parallel_est == serial_est  # bit-identical under a fixed seed
        return serial_time, parallel_time

    serial_time, parallel_time = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table(
        "e4_parallel_montecarlo",
        f"E4d: serial vs parallel Monte Carlo ({samples} samples, seed 7)",
        ["executor", "workers", "wall time", "samples/s"],
        [
            ["serial", 1, f"{serial_time:.2f} s", f"{samples / serial_time:,.0f}"],
            [
                "process pool",
                4,
                f"{parallel_time:.2f} s",
                f"{samples / parallel_time:,.0f}",
            ],
        ],
        notes=[
            f"host CPUs available: {available_cpus()}",
            "estimates are bit-identical under both executors (fixed chunking "
            "+ per-chunk seeds)",
        ],
    )
