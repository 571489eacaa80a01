"""Plan answers equal backtracking over many small per-world databases.

The answer-identity checks of the retired E18 and E21 benchmarks, kept as
tests: E18's pool of perturbed ~60-fact worlds evaluated cold and then
warm, E18's batch of alpha-renamed queries, and 1,500 distinct worlds
streamed once each under a tight byte budget. Each world's data source
lives and dies with the world, so neither reuse nor churn may change an
answer.
"""

from __future__ import annotations

import random

from repro.cache import set_cache_budget_mb
from repro.model import GlobalDatabase, fact
from repro.core import global_table
from repro.plan import evaluate, plan_key
from repro.queries import parse_rule

from tests.oracles import evaluate_backtracking

JOIN = parse_rule("ans(x, z) <- E(x, y), F(y, z)")

RENAME_SHAPES = [
    "ans({0}, {2}) <- E({0}, {1}), F({1}, {2})",
    "ans({0}) <- E({0}, {1}), E({1}, {0})",
    "ans({0}, {1}) <- E({0}, {1})",
    "ans({1}) <- F({0}, {1})",
    "ans({0}, {2}) <- E({0}, {1}), F({1}, {2}), Lt({0}, {2})",
]
RENAMINGS = [("x", "y", "z"), ("a", "b", "c"), ("p", "q", "r"), ("u", "v", "w")]


def world_pool(size: int = 50, seed: int = 18):
    """E18's pool: distinct perturbations of one bipartite E/F database."""
    rng = random.Random(seed)
    base_e = [(f"e{i}", f"m{i % 8}") for i in range(30)]
    base_f = [(f"m{i % 8}", f"t{i}") for i in range(30)]
    worlds = []
    for _ in range(size):
        e = [p for p in base_e if rng.random() > 0.08]
        f = [p for p in base_f if rng.random() > 0.08]
        worlds.append(
            GlobalDatabase(
                [fact("E", *p) for p in e] + [fact("F", *p) for p in f]
            )
        )
    return worlds


def churn_worlds(count: int = 1_500, seed: int = 21):
    """Distinct random worlds, each built once."""
    rng = random.Random(seed)
    for _ in range(count):
        e = [(f"e{rng.randrange(40)}", f"m{rng.randrange(8)}")
             for _ in range(18)]
        f = [(f"m{rng.randrange(8)}", f"t{rng.randrange(40)}")
             for _ in range(18)]
        yield GlobalDatabase(
            [fact("E", *p) for p in e] + [fact("F", *p) for p in f]
        )


def test_warm_pool_matches_backtracking():
    worlds = world_pool()
    for _round in ("cold", "warm"):
        for world in worlds:
            assert evaluate(JOIN, world) == evaluate_backtracking(JOIN, world)


def test_renamed_queries_match_backtracking_and_share_plans():
    world = world_pool(1, seed=99)[0]
    table = global_table()
    for shape in RENAME_SHAPES:
        queries = [parse_rule(shape.format(*names)) for names in RENAMINGS]
        assert len({plan_key(q, table) for q in queries}) == 1, shape
        for query in queries:
            assert evaluate(query, world) == evaluate_backtracking(query, world)


def test_churn_worlds_match_backtracking_under_a_budget():
    set_cache_budget_mb(0.25)
    try:
        for world in churn_worlds():
            assert evaluate(JOIN, world) == evaluate_backtracking(JOIN, world)
    finally:
        set_cache_budget_mb(None)
