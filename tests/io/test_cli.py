"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import save_collection, save_database
from repro.model import GlobalDatabase, fact

from tests.conftest import make_example51_collection


@pytest.fixture
def collection_file(tmp_path):
    path = str(tmp_path / "example51.sources")
    save_collection(make_example51_collection(), path)
    return path


@pytest.fixture
def inconsistent_file(tmp_path):
    from repro.queries import identity_view
    from repro.sources import SourceCollection, SourceDescriptor

    collection = SourceCollection(
        [
            SourceDescriptor(
                identity_view("V1", "R", 1), [fact("V1", "a")], 1, 1, name="S1"
            ),
            SourceDescriptor(
                identity_view("V2", "R", 1), [fact("V2", "b")], 0, 1, name="S2"
            ),
        ]
    )
    path = str(tmp_path / "bad.sources")
    save_collection(collection, path)
    return path


class TestCheck:
    def test_consistent_exit_zero(self, collection_file, capsys):
        assert main(["check", collection_file]) == 0
        out = capsys.readouterr().out
        assert "CONSISTENT" in out and "witness" in out

    def test_inconsistent_exit_one(self, inconsistent_file, capsys):
        assert main(["check", inconsistent_file]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_workers_ship_parsed_views_to_the_pool(self, tmp_path, capsys):
        # Two independent groups reach the process pool, which unpickles
        # the parsed views together with their builtin registry.
        path = tmp_path / "two_groups.sources"
        path.write_text(
            "source S1 completeness=1/2 soundness=1/2\n"
            "view V1(x) <- R(x)\n"
            'fact V1("a")\n'
            "source S2 completeness=1/2 soundness=1/2\n"
            "view V2(x) <- P(x)\n"
            'fact V2("b")\n'
        )
        assert main(["check", str(path), "--workers", "2"]) == 0
        assert "independent-groups[2]" in capsys.readouterr().out

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/file"]) == 2
        assert "error:" in capsys.readouterr().err


class TestConfidence:
    def test_ranked_output(self, collection_file, capsys):
        assert main(
            ["confidence", collection_file, "--domain", "a,b,c,d1"]
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert "R('b')" in lines[0]  # highest confidence first
        assert "6/7" in lines[0]


class TestWorlds:
    def test_enumeration_with_limit(self, collection_file, capsys):
        assert main(
            ["worlds", collection_file, "--domain", "a,b,c", "--limit", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "total possible worlds: 5" in out
        assert "... and 3 more" in out


class TestAudit:
    def test_admitted_world(self, collection_file, tmp_path, capsys):
        world_path = str(tmp_path / "world.facts")
        save_database(GlobalDatabase([fact("R", "b")]), world_path)
        assert main(["audit", collection_file, "--world", world_path]) == 0
        assert "world admitted" in capsys.readouterr().out

    def test_rejected_world(self, collection_file, tmp_path, capsys):
        world_path = str(tmp_path / "empty.facts")
        save_database(GlobalDatabase(), world_path)
        assert main(["audit", collection_file, "--world", world_path]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestConsensus:
    def test_consistent_collection(self, collection_file, capsys):
        assert main(["consensus", collection_file]) == 0
        assert "fully trusted" in capsys.readouterr().out

    def test_conflicting_collection(self, tmp_path, capsys):
        from repro.queries import identity_view
        from repro.sources import SourceCollection, SourceDescriptor

        collection = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("VA", "R", 1),
                    [fact("VA", "x"), fact("VA", "y")], 1, 1, name="A",
                ),
                SourceDescriptor(
                    identity_view("VB", "R", 1),
                    [fact("VB", "x"), fact("VB", "z")], 1, 1, name="B",
                ),
                SourceDescriptor(
                    identity_view("VC", "R", 1),
                    [fact("VC", "x"), fact("VC", "y")], 1, 1, name="C",
                ),
            ]
        )
        path = str(tmp_path / "conflict.sources")
        save_collection(collection, path)
        assert main(["consensus", path]) == 1
        out = capsys.readouterr().out
        assert "minimal conflicts" in out
        assert "minimum repair (drop): {B}" in out
        assert "uniform bound discount" in out


class TestRewrite:
    def test_rewrite_identity_views(self, collection_file, capsys):
        assert main(
            ["rewrite", collection_file, "--query", "ans(x) <- R(x)"]
        ) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out
        assert "answers from the sources" in out

    def test_plans_only(self, collection_file, capsys):
        assert main(
            [
                "rewrite",
                collection_file,
                "--query",
                "ans(x) <- R(x)",
                "--plans-only",
            ]
        ) == 0
        assert "answers" not in capsys.readouterr().out

    def test_no_rewriting_exists(self, collection_file, capsys):
        assert main(
            ["rewrite", collection_file, "--query", "ans(x) <- T(x)"]
        ) == 1
        assert "no sound rewriting" in capsys.readouterr().out


class TestErrorPaths:
    """Input errors exit 2 via one ``error:`` line — never a traceback."""

    def test_malformed_collection_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.sources"
        path.write_text("this is { not a source collection\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_malformed_database_file(self, collection_file, tmp_path, capsys):
        path = tmp_path / "garbage.facts"
        path.write_text("not-a-fact(((\n")
        assert main(["audit", collection_file, "--world", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_confidence_missing_file(self, capsys):
        assert main(
            ["confidence", "/nonexistent/file", "--domain", "a,b"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestStatsJson:
    def test_stats_emits_machine_readable_line(self, collection_file, capsys):
        import json

        assert main(
            [
                "confidence", collection_file,
                "--domain", "a,b,c,d1", "--stats",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[-1])  # last line is the JSON snapshot
        assert payload["tasks"]["submitted"] >= 1
        assert payload["executor"] in ("serial", "process", "thread")
        assert set(payload["tasks"]) == {"submitted", "memoized", "dispatched"}


class TestServe:
    def test_burst_prints_summary_and_snapshot(self, collection_file, capsys):
        import json

        assert main(
            [
                "serve", collection_file,
                "--domain", "a,b,c,d1", "--requests", "12",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served 12 requests" in out
        assert "ok: 12" in out
        snapshot = json.loads(out.strip().splitlines()[-1])
        assert snapshot["metrics"]["counters"]["responses_ok"] == 12

    def test_json_mode_prints_only_snapshot(self, collection_file, capsys):
        import json

        assert main(
            [
                "serve", collection_file,
                "--domain", "a,b,c,d1", "--requests", "4", "--json",
            ]
        ) == 0
        out = capsys.readouterr().out.strip()
        snapshot = json.loads(out)  # the whole stdout is one JSON document
        assert set(snapshot) == {
            "cache", "gateway", "metrics", "plan", "registry", "resilience",
            "shard", "tracing",
        }
        assert "caches" in snapshot["cache"]

    def test_non_identity_collection_rejected(self, tmp_path, capsys):
        from repro.queries import identity_view
        from repro.sources import SourceCollection, SourceDescriptor

        collection = SourceCollection(
            [
                SourceDescriptor(
                    identity_view("V1", "R", 1), [fact("V1", "a")],
                    "1/2", "1/2", name="S1",
                ),
                SourceDescriptor(
                    identity_view("V2", "T", 1), [fact("V2", "b")],
                    "1/2", "1/2", name="S2",
                ),
            ]
        )
        path = str(tmp_path / "mixed.sources")
        save_collection(collection, path)
        assert main(["serve", path, "--domain", "a,b"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "identity-view" in err

    def test_bad_request_count_rejected(self, collection_file, capsys):
        assert main(
            [
                "serve", collection_file,
                "--domain", "a,b", "--requests", "0",
            ]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestAnswer:
    def test_answer_output(self, collection_file, capsys):
        assert main(
            [
                "answer",
                collection_file,
                "--query",
                "ans(x) <- R(x)",
                "--domain",
                "a,b,c",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "possible worlds: 5" in out
        assert "ans('b')" in out

    def test_bad_query_exit_two(self, collection_file, capsys):
        assert main(
            ["answer", collection_file, "--query", "garbage", "--domain", "a"]
        ) == 2


class TestAnswerShards:
    def test_sharded_answers_identical_to_single_store(
        self, collection_file, capsys
    ):
        base_args = [
            "answer", collection_file,
            "--query", "ans(x) <- R(x)", "--domain", "a,b,c",
        ]
        assert main(base_args) == 0
        single = capsys.readouterr().out
        assert main(base_args + ["--shards", "3"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == single

    def test_explain_reports_shard_plan(self, collection_file, capsys):
        assert main(
            [
                "answer", collection_file,
                "--query", "ans(x) <- R(x)", "--domain", "a,b,c",
                "--shards", "4", "--explain",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "shard plan: strategy=scatter" in out
        assert "shards=4" in out

    def test_explain_reports_pruned_shards(self, collection_file, capsys):
        # constant at the partition-key position: one shard executes, the
        # EXPLAIN surface reports the other three as pruned
        assert main(
            [
                "answer", collection_file,
                "--query", "ans() <- R('a')", "--domain", "a,b,c",
                "--shards", "4", "--explain",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy=pruned" in out
        assert "pruned=3" in out and "executed=1" in out

    def test_invalid_shard_count_exit_two(self, collection_file, capsys):
        assert main(
            [
                "answer", collection_file,
                "--query", "ans(x) <- R(x)", "--domain", "a",
                "--shards", "0",
            ]
        ) == 2


class TestServeShards:
    def test_sharded_serve_snapshot_has_shard_section(
        self, collection_file, capsys
    ):
        import json

        assert main(
            [
                "serve", collection_file,
                "--domain", "a,b,c,d1", "--requests", "6",
                "--shards", "2", "--json",
            ]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out.strip())
        assert snapshot["shard"]["shards"] == 2
        counters = snapshot["metrics"]["counters"]
        assert counters.get("query_requests", 0) >= 1
        assert counters.get("shard_queries", 0) >= 1
