#!/usr/bin/env python3
"""Run one workload of the mediator benchmark and print its result.

    python3 perfbench/run.py --workload serve|confidence|worlds|cq_eval \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Every workload runs in a fresh interpreter
(``perfbench/child.py``) with a recorded ``PYTHONHASHSEED``, because the
engine memo, the plan caches and the symbol table are process-wide.

* ``--trace 0`` runs the workload once and then starts two more
  interpreters that stop at the first timed op; it prints the end-to-end
  metrics, with ``setup_s`` the median of the three set-ups.
* ``--trace 1`` runs the workload untraced and then traced, with the same
  seed and length, and prints the per-layer metrics of the traced run plus
  the tracing overhead.

The last line of standard output is the result JSON; the line before it is
the run record, also written to ``perfbench/out/``. The exit code is 0 when
every output matched its oracle, 1 on a mismatch, 2 when a run could not
complete (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.child import PER_LAYER  # noqa: E402  (needs ROOT on the path)
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"

#: Wall-clock budget of one invocation, all interpreters included.
BUDGET_S = 170.0

#: Interpreters whose set-up time makes up ``setup_s``.
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class RunFailed(Exception):
    """A child interpreter failed or ran out of time."""


def spawn(args, mode: str, deadline: float, spans: Path = None) -> dict:
    """Run one child interpreter; returns its record plus ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--scale", args.scale,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise RunFailed(f"no time left for the {mode} run")
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} run exceeded {remaining:.0f}s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise RunFailed(f"{mode} run exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{mode} run printed nothing")
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_first"] - started
    return record


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout may not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def mean_prefix_ratio(traced, untraced) -> float:
    """Traced over untraced mean op latency on the ops both runs reached."""
    n = min(len(traced), len(untraced))
    if n == 0:
        return 0.0
    return sum(traced[:n]) / sum(untraced[:n]) - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    parser.add_argument("--hash-seed", type=int, default=None,
                        help="PYTHONHASHSEED of the workload interpreters "
                             "(default: derived from --seed)")
    args = parser.parse_args(argv)
    if args.hash_seed is None:
        args.hash_seed = args.seed % 4294967296
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        main_run = spawn(args, "measure", deadline)
        if args.trace:
            traced = spawn(args, "trace", deadline,
                           spans=OUT / f"{stem}.spans")
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_pct"] = 100.0 * mean_prefix_ratio(
                traced["latencies"], main_run["latencies"]
            )
            units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
            checked = (main_run, traced)
        else:
            setups = [main_run["setup_s"]]
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, "setup", deadline)["setup_s"])
            summary = main_run["summary"]
            metrics = {
                "p50_ms": summary["p50_ms"],
                "tail_ms": summary["tail_ms"],
                "ops_per_s": summary["ops_per_s"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": main_run["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
            checked = (main_run,)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(run["correct"] for run in checked)
    digests = {run["input_digest"] for run in checked}
    if len(digests) != 1:
        print("error: the two runs generated different inputs", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": args.hash_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "nproc": main_run["nproc"],
        "python": main_run["python"],
        "input_digest": main_run["input_digest"],
        "op_classes": main_run["op_classes"],
        "tail_rule": main_run["summary"].get("tail_rule"),
        "tail_samples": main_run["summary"].get("tail_samples"),
        "classes_at_p50": main_run["classes_at_p50"],
        "classes_at_tail": main_run["summary"].get("classes_at_tail"),
        "timed_wall_s": main_run["summary"].get("timed_wall_s"),
        "check_s": main_run["check_s"],
        "not_ok": main_run["not_ok"],
        "mismatches": sum(run["mismatches"] for run in checked),
        "mismatch_examples": main_run["mismatch_examples"],
        "error_examples": main_run["error_examples"],
        "workload_record": main_run["workload"],
        "result": result,
    }
    if not args.trace:
        record["setup_s_runs"] = setups
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
