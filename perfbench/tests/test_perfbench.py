"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q

They cover: a tiny-size smoke run of all four workloads, normal and
traced; equal input digests and oracle-clean outputs under two different
``PYTHONHASHSEED`` values; the checker flagging a corrupted answer, a
confidence from the wrong version and a non-OK status; and
``BENCHMARK.json`` naming exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import run as bench_run  # noqa: E402
from perfbench.child import PER_LAYER  # noqa: E402
from perfbench.common import OpLog, failures  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 3


def invoke(workload: str, trace: int, hash_seed: int):
    """One tiny run through the real entry point: (exit code, record, result)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny",
         "--hash-seed", str(hash_seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    assert len(lines) >= 2, done.stderr[-2000:]
    assert lines[-2].startswith("record ")
    return done.returncode, json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {w: invoke(w, trace=0, hash_seed=1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(smoke_runs, workload):
    code, record, result = smoke_runs[workload]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench_run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench_run.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name
    assert record["mismatches"] == 0 and record["nproc"] >= 1
    assert record["tail_rule"] and record["tail_samples"] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    code, record, result = invoke(workload, trace=1, hash_seed=1)
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["trace.coverage_pct"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_and_outputs_do_not_depend_on_the_hash_seed(smoke_runs, workload):
    _code, first, _result = smoke_runs[workload]
    code, second, result = invoke(workload, trace=0, hash_seed=2)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert (first["hash_seed"], second["hash_seed"]) == (1, 2)
    assert first["input_digest"] == second["input_digest"]


def _run(name: str, seconds: float, scale: str = "tiny"):
    import importlib

    module = importlib.import_module(f"perfbench.workloads.{name}")
    inputs = module.build(SEED, scale)
    module.warm(inputs)
    log = OpLog()
    module.run(inputs, seconds, log)
    assert module.check(inputs, log) == []
    return module, inputs, log


def test_checker_flags_a_corrupted_answer():
    module, inputs, log = _run("cq_eval", 0.3)
    i = next(k for k, out in enumerate(log.outputs) if out and out[1] == "chain")
    version, key, _digest = log.outputs[i]
    tables = module.version_tables(inputs)[version]
    answers = sorted(module.Oracle(tables).answers(key))
    assert answers
    log.outputs[i] = (version, key, module.answer_digest(answers[1:]))
    assert len(module.check(inputs, log)) == 1


def test_checker_flags_a_confidence_from_the_wrong_version():
    from repro.resilience import demote
    from repro.confidence import ConfidenceEngine

    # Full size: the tiny collection's update moves no confidence.
    module, inputs, log = _run("serve", 0.7, scale="full")
    # The last request comes after the first timed update.
    request, response = log.outputs[-1]
    version = response.snapshot_version
    assert version - 1 in inputs.versions
    old = ConfidenceEngine(demote(inputs.versions[version - 1], [inputs.crashed]),
                           inputs.domain, cache_size=0).confidences()
    new = ConfidenceEngine(demote(inputs.versions[version], [inputs.crashed]),
                           inputs.domain, cache_size=0).confidences()
    changed = {f for f in new if new[f] != old.get(f)}
    assert changed, "the update must move some confidence"
    i = next(k for k, (request, response) in enumerate(log.outputs)
             if response.snapshot_version == version and request.query is None)
    request, response = log.outputs[i]
    f = sorted(changed)[0]
    request.facts = (f,)
    response.confidences = {f: old[f]}
    mismatches = module.check(inputs, log)
    assert len(mismatches) == 1 and f"v{version}" in mismatches[0]


def test_a_non_ok_status_counts_as_failed():
    from repro.service import RequestStatus

    module, inputs, log = _run("serve", 0.3)
    assert failures(log, []) == 0
    request, response = log.outputs[0]
    response.status = RequestStatus.ERROR
    log.ok[0] = response.ok
    assert module.check(inputs, log) == []  # the oracle skips it ...
    assert failures(log, []) == 1  # ... but it is a failure


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_example_51_anchor_is_exact():
    from perfbench.workloads.confidence import anchor_mismatches, example51
    from repro.confidence import ConfidenceEngine

    collection, domain = example51()
    confidences = ConfidenceEngine(collection, domain, cache_size=0).confidences()
    assert sorted(confidences.values()) == [Fraction(4, 7), Fraction(4, 7), Fraction(6, 7)]
    assert anchor_mismatches(SEED) == []
