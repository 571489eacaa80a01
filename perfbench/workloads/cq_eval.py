"""``cq_eval``: conjunctive queries over one large database, in rounds.

A closed loop with one caller over a database of about 21k facts: the E19
skewed chain (``Big``/``Mid``/``Tiny``) plus the E20 ``R(k, v)`` relation.
Each round runs the same op list twice — once through ``repro.plan.evaluate``
on the single store and once through a serial ``ShardExecutor`` over 4
shards — and then writes a ~1% insert/delete delta, which starts a new
version. Per path and round:

* three cold queries (the chain and two joins, first sight on the version),
* eight warm repeats of each, which reuse the version's cached scan rows
  and join indexes, and
* 40 first-sight point lookups ``ans(v) <- R('k…', v)`` on keys never
  asked before in the run.

Per round that is 135 ops. The 80 lookups and 8 single-store warm joins
(about 1 ms or less) hold the median; 5 ops are slower than a warm chain
(the shard cold queries, the single-store cold chain and the write); the
17 ops of about a warm chain's cost (16 warm chains and the single-store
cold join) hold p90, which is ``tail_ms``. Runs stop only between rounds,
so the mix is the same whatever the host's speed. This is the scale
ROADMAP item 5 targets: the optimizer, statistics, scan/join and shard
pruning, in few large calls (``worlds`` drives the same plan layer with
many tiny ones).

The run keeps a digest of each answer set and each write's rows, not the
answers or a copy of every version, so the benchmark's own memory does
not grow with the number of ops and ``peak_rss_mb`` is the program's.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Iterable, List, Tuple

import repro.plan
from repro.model import GlobalDatabase, fact
from repro.queries import parse_rule
from repro.shard import PartitionSpec, ShardedDatabase, ShardExecutor

from perfbench.common import (
    Digest,
    OpLog,
    frozen_answers,
    percentile_tail,
    rng_for,
)

#: ``tail_ms`` percentile: the middle of the warm-chain band (see above).
TAIL_Q = 0.9

CHAIN = "ans(x, z) <- Big(y, z), Mid(x, y), Tiny(x, w)"
JOIN = "ans(x, v) <- Tiny(x, w), Mid(x, y), R(y, v)"
SEMIJOIN = "ans(k) <- R(k, v), Mid(x, k)"
SHARDS = 4

SIZES = {
    "full": {"big": 10000, "join_keys": 50, "mid": 1000, "mids": 1000,
             "tiny": 10, "r": 10000, "r_keys": 4000, "delta": 100,
             "lookups": 40, "warm_repeats": 8},
    "tiny": {"big": 300, "join_keys": 6, "mid": 60, "mids": 30,
             "tiny": 5, "r": 300, "r_keys": 200, "delta": 6,
             "lookups": 4, "warm_repeats": 1},
}


class Inputs:
    """Version 0 of the database plus the seeded delta and key streams."""

    def __init__(self, seed: int, scale: str):
        p = self.params = SIZES[scale]
        self.seed = seed
        self.scale = scale
        rng = rng_for(seed, "cq_eval", "base")
        # The E19 chain and the E20 relation with their fixed fan-outs: every
        # join key has the same number of Big rows and every Mid x the same
        # number of Mid rows. The seed picks which x's Tiny holds, the lookup
        # order and the writes, not the shape, so a query's cost does not
        # depend on the seed (random fan-outs moved the chain's answer count,
        # and with it the warm chains behind tail_ms, by a third).
        self.tables: Dict[str, List[Tuple[str, str]]] = {
            "Big": [(f"k{i % p['join_keys']}", f"z{i}")
                    for i in range(p["big"])],
            "Mid": [(f"x{i % p['mids']}", f"k{i % p['join_keys']}")
                    for i in range(p["mid"])],
            "Tiny": [(f"x{x}", f"w{j}") for j, x in
                     enumerate(rng.sample(range(p["mids"]), p["tiny"]))],
            "R": [(f"k{i % p['r_keys']}", f"v{i}") for i in range(p["r"])],
        }
        # Lookup keys in a seeded order; each is asked once per run.
        self.lookup_keys = [f"k{i}" for i in range(p["r_keys"])]
        rng.shuffle(self.lookup_keys)
        self.queries = {
            "chain": parse_rule(CHAIN),
            "join": parse_rule(JOIN),
            "semijoin": parse_rule(SEMIJOIN),
        }

    def build_database(self) -> GlobalDatabase:
        return GlobalDatabase(
            fact(relation, *row)
            for relation in sorted(self.tables)
            for row in self.tables[relation]
        )

    def delta(self, version: int):
        """Round *version*'s write: rows deleted from and added to Big and R.

        Mutates :attr:`tables` (the current version's plain-tuple copy) and
        returns the ``(deleted, inserted)`` rows as ``(relation, row)``.
        """
        rng = rng_for(self.seed, "cq_eval", "delta", version)
        deleted, inserted = [], []
        keys = {"Big": self.params["join_keys"], "R": self.params["r_keys"]}
        for relation, fresh in (("Big", "z"), ("R", "v")):
            rows = self.tables[relation]
            # Deletions first: a row inserted by this write must not also be
            # deleted by it (the database applies deletions before insertions).
            for _ in range(self.params["delta"] // 2):
                j = rng.randrange(len(rows))
                rows[j], rows[-1] = rows[-1], rows[j]
                deleted.append((relation, rows.pop()))
            for _ in range(self.params["delta"] // 2):
                row = (f"k{rng.randrange(keys[relation])}",
                       f"{fresh}{version}_{len(inserted)}")
                rows.append(row)
                inserted.append((relation, row))
        return deleted, inserted


def build(seed: int, scale: str) -> Inputs:
    return Inputs(seed, scale)


def digest(inputs: Inputs) -> str:
    fresh = Inputs(inputs.seed, inputs.scale)
    d = Digest()
    d.add(sorted(fresh.params.items()))
    for relation in sorted(fresh.tables):
        for row in sorted(fresh.tables[relation]):
            d.add(relation, *row)
    d.add(*fresh.lookup_keys)
    for version in range(1, 4):
        deleted, inserted = fresh.delta(version)
        d.add(version, *sorted(map(str, deleted)))
        d.add(version, *sorted(map(str, inserted)))
    return d.hexdigest()


def warm(inputs: Inputs) -> None:
    """Compile every query shape once on a throwaway slice of the data,
    then build version 0 (interned)."""
    scratch = GlobalDatabase(
        fact(relation, *row)
        for relation in sorted(inputs.tables)
        for row in inputs.tables[relation][: max(1, len(inputs.tables[relation]) // 20)]
    )
    executor = ShardExecutor(ShardedDatabase(scratch, PartitionSpec(SHARDS)))
    for query in inputs.queries.values():
        repro.plan.evaluate(query, scratch)
        executor.answer(query)
    lookup = parse_rule("ans(v) <- R('warm', v)")
    repro.plan.evaluate(lookup, scratch)
    executor.answer(lookup)
    inputs.base = {r: list(rows) for r, rows in inputs.tables.items()}
    inputs.deltas = [None]
    inputs.database = inputs.build_database()
    inputs.database.core()


def answer_digest(rows: Iterable[tuple]) -> str:
    """SHA-256 of an answer set given as plain value tuples."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def run(inputs: Inputs, seconds: float, log: OpLog) -> float:
    """Rounds until *seconds* pass; outputs are (version, query key,
    answer digest).

    Version 0 comes from :func:`warm`; every later version is built by a
    timed ``write`` op, whose rows are kept for the oracle.
    """
    clock = time.perf_counter
    log.t_first = time.monotonic()
    deadline = clock() + seconds
    database = inputs.database
    executor = ShardExecutor(ShardedDatabase(database, PartitionSpec(SHARDS)))
    busy = 0.0
    version = 0
    next_key = 0
    repeats = inputs.params["warm_repeats"]
    n_lookups = inputs.params["lookups"]
    queries = inputs.queries

    def timed(cls, fn, key):
        nonlocal busy
        start = clock()
        try:
            answers = fn()
        except Exception as exc:  # a failed op is counted, not fatal
            end = clock()
            log.errors.append(f"{cls} v{version} {key}: {type(exc).__name__}: {exc}")
            output, ok = None, False
        else:
            end = clock()
            output = (version, key, answer_digest(frozen_answers(answers)))
            ok = True
        busy += end - start
        log.windows.append((start, end))
        log.record(cls, end - start, ok, output)

    while clock() < deadline:
        paths = (
            ("single", lambda q: repro.plan.evaluate(q, database)),
            ("shard", executor.answer),
        )
        for path, answer in paths:
            keys = inputs.lookup_keys
            lookups = []
            for _ in range(n_lookups):
                key = keys[next_key % len(keys)]
                next_key += 1
                lookups.append((key, parse_rule(f"ans(v) <- R('{key}', v)")))
            for name, query in queries.items():
                timed(f"{path}.cold", lambda: answer(query), name)
            for key, query in lookups:
                timed(f"{path}.lookup", lambda: answer(query), f"lookup:{key}")
            for _ in range(repeats):
                for name, query in queries.items():
                    timed(f"{path}.warm", lambda: answer(query), name)
        if clock() >= deadline:
            break
        version += 1
        deleted, inserted = inputs.delta(version)
        inputs.deltas.append((deleted, inserted))
        deleted = [fact(relation, *row) for relation, row in deleted]
        inserted = [fact(relation, *row) for relation, row in inserted]
        start = clock()
        database = database.without_facts(deleted).with_facts(inserted)
        database.core()
        executor = ShardExecutor(
            ShardedDatabase(database, PartitionSpec(SHARDS))
        )
        end = clock()
        busy += end - start
        log.windows.append((start, end))
        log.record("write", end - start, True, None)
    return busy


def _index(rows) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for k, value in rows:
        out.setdefault(k, []).append(value)
    return out


class Oracle:
    """Plain-tuple hash joins over one version's tables."""

    def __init__(self, tables):
        self.tiny = tables["Tiny"]
        self.mid_by_x = _index(tables["Mid"])
        self.mid_keys = {y for _x, y in tables["Mid"]}
        self.big_by_key = _index(tables["Big"])
        self.r_by_key = _index(tables["R"])

    def answers(self, key: str) -> frozenset:
        if key.startswith("lookup:"):
            wanted = key.split(":", 1)[1]
            return frozenset((v,) for v in self.r_by_key.get(wanted, ()))
        if key == "semijoin":
            return frozenset((k,) for k in self.r_by_key if k in self.mid_keys)
        index = self.big_by_key if key == "chain" else self.r_by_key
        return frozenset(
            (x, value)
            for x, _w in self.tiny
            for y in self.mid_by_x.get(x, ())
            for value in index.get(y, ())
        )


def version_tables(inputs: Inputs) -> List[Dict[str, List[Tuple[str, str]]]]:
    """Every version's plain-tuple tables, replayed from version 0 and the
    rows of each write."""
    tables = {r: list(rows) for r, rows in inputs.base.items()}
    out = [tables]
    for deleted, inserted in inputs.deltas[1:]:
        tables = {r: list(rows) for r, rows in tables.items()}
        for relation, row in deleted:
            tables[relation].remove(row)
        for relation, row in inserted:
            tables[relation].append(row)
        out.append(tables)
    return out


def check(inputs: Inputs, log: OpLog) -> List[str]:
    mismatches: List[str] = []
    tables = version_tables(inputs)
    oracles: Dict[int, Oracle] = {}
    expected: Dict[Tuple[int, str], str] = {}
    for i, output in enumerate(log.outputs):
        if output is None:
            continue
        version, key, digest = output
        if (version, key) not in expected:
            if version not in oracles:
                oracles[version] = Oracle(tables[version])
            expected[version, key] = answer_digest(oracles[version].answers(key))
        if digest != expected[version, key]:
            mismatches.append(f"op {i} ({log.classes[i]} {key} v{version}): "
                              "answers differ from the hash-join oracle")
    return mismatches


def tail(inputs: Inputs, log: OpLog):
    return percentile_tail(log, TAIL_Q)
