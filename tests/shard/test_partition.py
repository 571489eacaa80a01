"""Partitioning: stable buckets, disjoint cover, key-position handling."""

import subprocess
import sys

import pytest

from repro.core.symbols import global_table
from repro.exceptions import ModelError
from repro.model import GlobalDatabase, fact
from repro.shard import (
    PartitionSpec,
    bucket_of_fact,
    partition_facts,
    stable_bucket,
)


def small_core(n=50):
    db = GlobalDatabase(
        [fact("E", i % 9, i % 5) for i in range(n)]
        + [fact("S", i % 7) for i in range(n // 2)]
        + [fact("Z")]
    )
    return db.core()


class TestStableBucket:
    def test_deterministic_and_in_range(self):
        for value in ("a", 17, 3.5, ("x", 1), None, True):
            first = stable_bucket(value, 8)
            assert first == stable_bucket(value, 8)
            assert 0 <= first < 8

    def test_single_shard_is_always_zero(self):
        assert stable_bucket("anything", 1) == 0

    def test_type_discriminates(self):
        # hash(1) == hash(1.0) would co-locate these; the stable bucket
        # hashes (type name, repr) so they may differ — and int vs str
        # certainly carry different payloads.
        assert stable_bucket(1, 1 << 30) != stable_bucket("1", 1 << 30)

    def test_stable_across_hash_seeds(self):
        # PYTHONHASHSEED randomizes builtin hash(); the shard assignment
        # must not move. Run the computation under two forced seeds.
        import os

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "from repro.shard import stable_bucket; "
            "print([stable_bucket(v, 16) for v in ('a', 'b', 7, 2.5)])"
        )
        outs = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout.strip())
        assert len(outs) == 1

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ModelError):
            stable_bucket("a", 0)


class TestPartitionSpec:
    def test_value_semantics(self):
        a = PartitionSpec(4, {"E": 1})
        b = PartitionSpec(4, {"E": 1})
        assert a == b and hash(a) == hash(b)
        assert a != PartitionSpec(4, {"E": 0})
        assert a != PartitionSpec(5, {"E": 1})

    def test_key_position_clamps_to_arity(self):
        spec = PartitionSpec(4, {"E": 5})
        assert spec.key_position("E", 2) == 1
        assert spec.key_position("E", 1) == 0
        assert spec.key_position("E", 0) is None

    def test_default_key_applies_to_unnamed_relations(self):
        spec = PartitionSpec(4, {"E": 1}, default_key=0)
        assert spec.key_position("S", 3) == 0
        assert spec.key_position("E", 3) == 1

    def test_shard_of_args_matches_bucket(self):
        spec = PartitionSpec(8, {"E": 1})
        assert spec.shard_of_args("E", ("a", "b")) == stable_bucket("b", 8)
        assert spec.shard_of_args("Z", ()) == 0

    def test_validation(self):
        with pytest.raises(ModelError):
            PartitionSpec(0)
        with pytest.raises(ModelError):
            PartitionSpec(2, {"E": -1})
        with pytest.raises(ModelError):
            PartitionSpec(2, default_key=-1)


class TestPartitionFacts:
    def test_disjoint_cover(self):
        core = small_core()
        for n in (1, 2, 3, 8):
            shards = partition_facts(core, PartitionSpec(n))
            assert len(shards) == n
            union = frozenset()
            total = 0
            for shard in shards:
                assert not (union & shard.ids())
                union |= shard.ids()
                total += len(shard)
            assert union == core.ids() and total == len(core)

    def test_fact_lands_where_its_key_hashes(self):
        core = small_core()
        spec = PartitionSpec(4, {"E": 1})
        shards = partition_facts(core, spec)
        table = core.table
        for fid in core.ids():
            bucket = bucket_of_fact(core, spec, fid)
            assert fid in shards[bucket]
            t = table.fact_tuple(fid)
            if table.relation_name(t[0]) == "E":
                assert bucket == stable_bucket(
                    table.constant_value(t[2]), 4
                )

    def test_zero_arity_facts_go_to_shard_zero(self):
        core = GlobalDatabase([fact("Z")]).core()
        shards = partition_facts(core, PartitionSpec(4))
        assert len(shards[0]) == 1
        assert all(len(s) == 0 for s in shards[1:])

    def test_single_shard_returns_the_input(self):
        core = small_core()
        (only,) = partition_facts(core, PartitionSpec(1))
        assert only is core

    def test_equal_content_partitions_equally(self):
        # Nothing is cached across fact sets (a store keeps its own base
        # partition); an equal-content set gets an equal layout.
        table = global_table()
        core = small_core()
        first = partition_facts(core, PartitionSpec(3))
        again = partition_facts(
            GlobalDatabase(
                fact(table.relation_name(table.fact_tuple(fid)[0]),
                     *[table.constant_value(c)
                       for c in table.fact_tuple(fid)[1:]])
                for fid in core.ids()
            ).core(),
            PartitionSpec(3),
        )
        assert again is not first
        assert again == first
