"""``tools/bench_pairs.py``: aggregation over canned perfbench run records
(no benchmark runs here)."""

import csv
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "p50_ms", "unit": "ms", "better": "lower"},
]


def record(ops, p50, correct=True, failed=0, digest="abc"):
    """A run record as ``perfbench/run.py`` prints it (the fields read)."""
    return {
        "nproc": 2,
        "src_digest": digest,
        "result": {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "p50_ms": {"value": p50, "unit": "ms"},
            },
        },
    }


def test_iqr_is_the_distance_between_inclusive_quartiles():
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench_pairs.iqr([7.0]) == 0.0


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    pairs = [(300.0, 438.0), (314.0, 425.0), (355.0, 355.0), (288.0, 280.0)]
    higher = bench_pairs.summarize(pairs, "higher")
    assert higher["wins"] == 2
    assert higher["parent_median"] == 307.0
    assert higher["change_median"] == 390.0
    assert higher["per_pair"] == "300→438, 314→425, 355→355, 288→280"
    assert bench_pairs.summarize(pairs, "lower")["wins"] == 1
    assert higher["change_pct"] == pytest.approx(100 * 83 / 307)


#: cq_eval ``ops_per_s`` of a change that was faster in 7/7 pairs, with a
#: parent spread (IQR 33% of the median) wider than the 0.25 bound.
WIDE_PARENT = [(189, 265), (184, 228), (205, 215), (135, 182), (135, 185),
               (143, 161), (143, 167)]
TIGHT_PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0,
                100.0]


@pytest.mark.parametrize(
    "pairs, better, expected",
    [
        (WIDE_PARENT, "higher", "unresolved"),
        # A wide parent spread is overruled when every change run wins.
        ([(p, c + 100) for p, c in WIDE_PARENT], "higher", "gain"),
        ([(p, p * 0.7) for p in TIGHT_PARENT], "higher", "worse"),
        ([(p, p * 1.3) for p in TIGHT_PARENT], "lower", "worse"),
        ([(p, p * 0.5) for p in TIGHT_PARENT], "lower", "gain"),
        ([(p, p + 5) for p in TIGHT_PARENT], "higher", "gain"),
        # 8/10 wins is not a gain, even with a large median move.
        ([(p, p + 5 if i < 8 else p - 1) for i, p in enumerate(TIGHT_PARENT)],
         "higher", "within bound"),
        # 10/10 wins by less than the parent's IQR is not a gain either.
        ([(p, p + 0.5) for p in TIGHT_PARENT], "higher", "within bound"),
        ([(p, p * 0.9) for p in TIGHT_PARENT], "higher", "within bound"),
    ],
)
def test_verdict_applies_the_benchmark_rule(pairs, better, expected):
    assert bench_pairs.verdict(pairs, better, 0.25) == expected


def test_verdict_is_rendered_from_the_metric_bound():
    runs = [(record(p, 1.0), record(c, 1.0)) for p, c in WIDE_PARENT]
    (row,) = bench_pairs.report(
        "cq_eval", runs, [{"name": "ops_per_s", "unit": "1/s",
                           "better": "higher", "bound": 0.25}]
    )
    assert row["verdict"] == "unresolved"
    assert "cq_eval ops_per_s (1/s) [unresolved]: median 143 → 185" in (
        bench_pairs.render([row])
    )
    assert "verdict" not in bench_pairs.COLUMNS


def test_report_and_trajectory_rows_from_canned_runs(tmp_path):
    runs = [
        (record(300, 2.9), record(440, 2.1, digest="def")),
        (record(310, 2.7), record(430, 2.0, digest="def")),
        (record(320, 2.8), record(450, 2.2, digest="def")),
    ]
    rows = bench_pairs.report("confidence", runs, METRICS)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["ops_per_s"]["wins"] == 3
    assert by_metric["p50_ms"]["wins"] == 3
    assert by_metric["p50_ms"]["parent_median"] == 2.8
    assert by_metric["ops_per_s"]["parent_iqr_pct"] == pytest.approx(
        100 * 10 / 310
    )
    text = bench_pairs.render(rows)
    assert "confidence ops_per_s (1/s): median 310 → 440" in text
    assert "2.9→2.1, 2.7→2, 2.8→2.2" in text

    path = tmp_path / "trajectory.csv"
    context = {"base_sha": "244846e14e30", "change_sha": "244846e14e30+",
               "nproc": 2, "seeds": "61-63", "failed_runs": 0}
    for _ in range(2):
        bench_pairs.append_trajectory(
            path, bench_pairs.trajectory_rows(rows, context)
        )
    with path.open() as handle:
        written = list(csv.DictReader(handle))
    assert len(written) == 4  # one header, then one row per metric per call
    assert set(written[0]) == set(bench_pairs.COLUMNS)
    assert written[0]["metric"] == "ops_per_s"
    assert written[0]["parent_median"] == "310"
    assert written[0]["change_median"] == "440"
    assert written[0]["seeds"] == "61-63"


def test_parse_run_reads_the_record_line_and_run_ok_checks_it():
    canned = record(300, 2.9)
    stdout = "progress\nrecord " + json.dumps(canned) + "\n" + json.dumps(
        canned["result"]
    ) + "\n"
    parsed = bench_pairs.parse_run(stdout)
    assert bench_pairs.metric_values(parsed) == {
        "ops_per_s": 300, "p50_ms": 2.9,
    }
    assert bench_pairs.run_ok(parsed)
    assert not bench_pairs.run_ok(record(300, 2.9, correct=False))
    assert not bench_pairs.run_ok(record(300, 2.9, failed=1))
    assert not bench_pairs.run_ok(None)
    with pytest.raises(ValueError):
        bench_pairs.parse_run("error: run exceeded\n")
