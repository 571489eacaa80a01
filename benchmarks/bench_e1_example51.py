"""E1 — Example 5.1: closed-form confidences and their large-m limits.

Regenerates the paper's only worked quantitative result. Our exact counts
(cross-checked against brute force and hand enumeration) give, over
dom = {a, b, c, d_1..d_m}:

    conf(R(a)) = conf(R(c)) = (m+3)/(2m+5)
    conf(R(b))              = (2m+4)/(2m+5)
    conf(R(d_i))            = 2/(2m+5)

The paper prints these same families with m shifted by one — an arithmetic
slip documented in EXPERIMENTS.md; the limits (1/2, 1, 0) agree. The bench
also times the block-counting algorithm, demonstrating the "exponential in
principle" computation is polynomial in m here.
"""

from fractions import Fraction

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.confidence import BlockCounter, IdentityInstance

from benchmarks.conftest import write_table


def example51_collection() -> SourceCollection:
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


def domain(m: int):
    return ["a", "b", "c"] + [f"d{i}" for i in range(1, m + 1)]


def confidences_for(m: int):
    counter = BlockCounter(IdentityInstance(example51_collection(), domain(m)))
    return {
        "a": counter.confidence(fact("R", "a")),
        "b": counter.confidence(fact("R", "b")),
        "c": counter.confidence(fact("R", "c")),
        "d": counter.confidence(fact("R", "d1")) if m >= 1 else None,
    }


def test_e1_table(benchmark, results_dir):
    """Regenerate the Example 5.1 confidence table across m."""
    all_conf = benchmark.pedantic(
        lambda: {m: confidences_for(m) for m in (1, 2, 5, 10, 50, 200)},
        rounds=1,
        iterations=1,
    )
    rows = []
    for m in (1, 2, 5, 10, 50, 200):
        conf = all_conf[m]
        ours_a = Fraction(m + 3, 2 * m + 5)
        ours_b = Fraction(2 * m + 4, 2 * m + 5)
        ours_d = Fraction(2, 2 * m + 5)
        paper_a = Fraction(m + 2, 2 * m + 3)
        paper_b = Fraction(2 * m + 2, 2 * m + 3)
        assert conf["a"] == conf["c"] == ours_a
        assert conf["b"] == ours_b
        assert conf["d"] == ours_d
        rows.append(
            [
                m,
                f"{conf['a']} (~{float(conf['a']):.4f})",
                f"{conf['b']} (~{float(conf['b']):.4f})",
                f"{conf['d']} (~{float(conf['d']):.4f})",
                f"{paper_a}",
                f"{paper_b}",
            ]
        )
    # asymptotics: conf(b) -> 1, conf(a) -> 1/2, conf(d) -> 0
    big = confidences_for(400)
    assert abs(float(big["b"]) - 1) < 0.01
    assert abs(float(big["a"]) - 0.5) < 0.01
    assert float(big["d"]) < 0.01
    write_table(
        "e1_example51",
        "E1: Example 5.1 exact confidences over dom = {a,b,c,d_1..d_m}",
        ["m", "conf(a)=conf(c)", "conf(b)", "conf(d_i)", "paper a", "paper b"],
        rows,
        notes=[
            "paper's printed formulas equal ours with m -> m-1 (off-by-one slip)",
            "limits m->inf: conf(b)->1, conf(a)->1/2, conf(d)->0 (paper agrees)",
        ],
    )


def test_e1_block_counting_speed(benchmark):
    """Time exact confidence at m = 200 (fact space of 203 variables)."""
    collection = example51_collection()
    dom = domain(200)

    def run():
        counter = BlockCounter(IdentityInstance(collection, dom))
        return counter.confidence(fact("R", "b"))

    result = benchmark(run)
    assert result == Fraction(404, 405)


def test_e1_scaling_in_m(benchmark, results_dir):
    """Counting cost grows polynomially in m (the paper's method is 2^N)."""
    import time

    def sweep():
        rows = []
        for m in (10, 100, 1000):
            start = time.perf_counter()
            counter = BlockCounter(
                IdentityInstance(example51_collection(), domain(m))
            )
            counter.confidence(fact("R", "b"))
            elapsed = time.perf_counter() - start
            rows.append([m, 3 + m, f"{elapsed * 1000:.2f} ms", f"2^{3 + m}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e1_scaling",
        "E1b: block counting vs the paper's brute-force bound",
        ["m", "N (variables)", "block counting", "brute-force worlds"],
        rows,
    )


def test_e1_engine_memoization(benchmark, results_dir):
    """The memoized engine on Example 5.1 at m = 200 (E1c).

    A ``confidences()`` call is one counting task: the first pass keys the
    instance once and runs one sweep that tracks every signature block;
    the second pass (a fresh engine on the warm memo) reads the count and
    every block numerator from that one line without a sweep.
    """
    import time

    from repro.confidence.engine import ConfidenceEngine, LRUMemo

    collection = example51_collection()
    dom = domain(200)
    memo = LRUMemo(256)

    def run():
        rows = []
        for label in ("cold", "warm"):
            engine = ConfidenceEngine(collection, dom, memo=memo)
            start = time.perf_counter()
            confidences = engine.confidences()
            elapsed = time.perf_counter() - start
            assert confidences[fact("R", "b")] == Fraction(404, 405)
            snapshot = engine.stats.cache
            rows.append(
                [
                    label,
                    engine.stats.tasks_submitted,
                    engine.stats.tasks_memoized,
                    engine.stats.tasks_dispatched,
                    f"{elapsed * 1000:.2f} ms",
                    f"{snapshot.hit_rate:.0%}",
                ]
            )
            engine.close()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table(
        "e1_engine_cache",
        "E1c: memoized engine on Example 5.1 (m = 200)",
        ["pass", "tasks", "memoized", "computed", "wall time", "cache hit rate"],
        rows,
        notes=[
            "warm pass answers the instance's one counting task (the "
            "count and every block numerator) from the canonical-key LRU "
            "memo without running a DP sweep",
        ],
    )
