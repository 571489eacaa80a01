#!/usr/bin/env python3
"""Compare a change against its parent with alternating perfbench runs.

    python3 tools/bench_pairs.py --workload confidence --pairs 10 --seed 61
    python3 tools/bench_pairs.py --workload serve --workload worlds \\
        --pairs 3 --seed 61 --base HEAD~1

Run from anywhere inside the repository. The parent (``--base``, default
``HEAD``) is exported with ``git archive`` into a temporary directory; the
change is the working tree, committed or not. For each workload, pair *i*
runs ``perfbench/run.py --trace 0`` on both trees with seed ``--seed + i``,
the parent first in even pairs and the change first in odd ones, so slow
drift of the host does not favour one side.

It prints, per workload and end-to-end metric of ``BENCHMARK.json``, both
medians, each side's interquartile range as a share of its median, how
many pairs the change won (ties count for neither), the per-pair values as
``parent→change``, and the verdict of the benchmark's own rule (see
:func:`verdict`) under the metric's ``bound``. It then appends one row per workload and
metric to ``benchmarks/results/perfbench_trajectory.csv`` (``--csv``), so
the numbers of successive changes stay comparable. Exit code 0 when every
run completed with correct outputs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "results" / "perfbench_trajectory.csv"

COLUMNS = (
    "date", "workload", "metric", "unit", "base_sha", "change_sha",
    "base_src", "change_src", "nproc", "seconds", "seeds", "pairs",
    "parent_median", "change_median", "parent_iqr_pct", "change_iqr_pct",
    "change_wins", "failed_runs",
)


def iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def verdict(
    pairs: Sequence[Tuple[float, float]], better: str, bound: float
) -> str:
    """The benchmark's judgement of one metric's ``(parent, change)`` pairs.

    * ``unresolved`` — the parent's IQR exceeds *bound* × its median, unless
      every change run beats every parent run;
    * ``worse`` — otherwise, the change's median is worse than the
      parent's by more than *bound* (a fraction of the parent's median);
    * ``gain`` — the change wins at least 9/10 of the pairs and its median
      is better than the parent's by more than the parent's IQR;
    * ``within bound`` — anything else.
    """
    parent = [p for p, _c in pairs]
    change = [c for _p, c in pairs]
    parent_median = statistics.median(parent)
    # Orient every comparison so that "larger is better".
    sign = -1.0 if better == "lower" else 1.0
    spread = iqr(parent)
    if spread > bound * abs(parent_median) and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        return "unresolved"
    gap = sign * (statistics.median(change) - parent_median)
    if gap < -bound * abs(parent_median):
        return "worse"
    wins = sum(sign * c > sign * p for p, c in pairs)
    if wins >= 0.9 * len(pairs) and gap > spread:
        return "gain"
    return "within bound"


def summarize(
    pairs: Sequence[Tuple[float, float]], better: str,
    bound: Optional[float] = None,
) -> Dict[str, object]:
    """Aggregate one metric's ``(parent, change)`` pairs.

    *better* is ``"lower"`` or ``"higher"``; a pair is a win when the
    change is strictly better, so ties count for neither side. With the
    metric's *bound*, the summary carries its :func:`verdict`.
    """
    parent = [p for p, _c in pairs]
    change = [c for _p, c in pairs]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if better == "lower":
        wins = sum(c < p for p, c in pairs)
    else:
        wins = sum(c > p for p, c in pairs)
    return {
        "verdict": None if bound is None else verdict(pairs, better, bound),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr_pct": share(iqr(parent), parent_median),
        "change_iqr_pct": share(iqr(change), change_median),
        "change_pct": share(change_median - parent_median, parent_median),
        "wins": wins,
        "pairs": len(pairs),
        "per_pair": ", ".join(f"{fmt(p)}→{fmt(c)}" for p, c in pairs),
    }


def fmt(value: float) -> str:
    """Three significant figures, without exponents for the usual range."""
    if value == 0 or abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def parse_run(stdout: str) -> Dict[str, object]:
    """The run record ``perfbench/run.py`` prints before its result line."""
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    raise ValueError("no run record in the output")


def metric_values(record: Dict[str, object]) -> Dict[str, float]:
    metrics = record["result"]["metrics"]  # type: ignore[index]
    return {name: entry["value"] for name, entry in metrics.items()}


def run_ok(record: Optional[Dict[str, object]]) -> bool:
    """A run counts when it finished, every output was correct and no op
    failed."""
    if record is None:
        return False
    result = record["result"]  # type: ignore[index]
    return bool(result["correct"]) and result["failed"] == 0


def report(
    workload: str,
    runs: Sequence[Tuple[Dict[str, object], Dict[str, object]]],
    metrics: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """One summary per end-to-end metric over the pairs in *runs*."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (metric_values(p)[name], metric_values(c)[name]) for p, c in runs
        ]
        summary = summarize(pairs, metric["better"], metric.get("bound"))
        summary.update(workload=workload, metric=name, unit=metric["unit"])
        rows.append(summary)
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    lines = []
    for row in rows:
        judged = f" [{row['verdict']}]" if row.get("verdict") else ""
        lines.append(
            f"{row['workload']} {row['metric']} ({row['unit']}){judged}: "
            f"median {fmt(row['parent_median'])} → "
            f"{fmt(row['change_median'])} ({row['change_pct']:+.1f}%), "
            f"IQR {row['parent_iqr_pct']:.1f}% / {row['change_iqr_pct']:.1f}% "
            f"of the median, change better in {row['wins']}/{row['pairs']} "
            f"pairs; per pair {row['per_pair']}"
        )
    return "\n".join(lines)


def trajectory_rows(
    rows: Sequence[Dict[str, object]], context: Dict[str, object]
) -> List[Dict[str, object]]:
    out = []
    for row in rows:
        entry = dict(context)
        entry.update(
            workload=row["workload"], metric=row["metric"], unit=row["unit"],
            pairs=row["pairs"], change_wins=row["wins"],
            parent_median=f"{row['parent_median']:.6g}",
            change_median=f"{row['change_median']:.6g}",
            parent_iqr_pct=f"{row['parent_iqr_pct']:.1f}",
            change_iqr_pct=f"{row['change_iqr_pct']:.1f}",
        )
        out.append({column: entry.get(column, "") for column in COLUMNS})
    return out


def append_trajectory(path: Path, rows: Sequence[Dict[str, object]]) -> None:
    new = not path.exists() or path.stat().st_size == 0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        if new:
            writer.writeheader()
        writer.writerows(rows)


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, check=True,
    )
    return done.stdout.decode().strip()


def export(revision: str, target: Path) -> None:
    """The committed files of *revision*, extracted under *target*."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def perfbench(
    tree: Path, workload: str, seed: int, seconds: float
) -> Optional[Dict[str, object]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return parse_run(done.stdout)
    except ValueError:
        sys.stderr.write(done.stderr[-2000:])
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=61,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--base", default="HEAD",
                        help="the parent revision (default: HEAD)")
    parser.add_argument("--csv", type=Path, default=TRAJECTORY)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    base_sha = git("rev-parse", args.base)
    change_sha = git("rev-parse", "HEAD")[:12]
    if git("status", "--porcelain", "--untracked-files=no"):
        change_sha += "+"  # the working tree differs from its commit
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent_tree = Path(scratch) / "parent"
        export(base_sha, parent_tree)
        for workload in args.workload:
            runs = []
            failed = 0
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                got = {}
                for side, tree in sides:
                    record = perfbench(tree, workload, seed, seconds)
                    got[side] = record
                    status = "ok" if run_ok(record) else "FAILED"
                    print(f"{workload} pair {i} seed {seed} {side}: {status}",
                          file=sys.stderr, flush=True)
                if run_ok(got["parent"]) and run_ok(got["change"]):
                    runs.append((got["parent"], got["change"]))
                else:
                    failed += 1
            all_ok = all_ok and not failed
            if not runs:
                continue
            rows = report(workload, runs, benchmark["end_to_end"])
            print(render(rows), flush=True)
            first_parent, first_change = runs[0]
            context = {
                "date": time.strftime("%Y-%m-%d"),
                "base_sha": base_sha[:12], "change_sha": change_sha,
                "base_src": first_parent["src_digest"],
                "change_src": first_change["src_digest"],
                "nproc": first_change["nproc"], "seconds": seconds,
                "seeds": f"{args.seed}-{args.seed + args.pairs - 1}",
                "failed_runs": failed,
            }
            append_trajectory(args.csv, trajectory_rows(rows, context))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
