"""Smoke test for the benchmark: every workload at a tiny size, the traced
run, and the output checks against deliberately corrupted outputs.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from rgbench import WORKLOADS, load_workload  # noqa: E402
from rgbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from rgbench.spans import NoTrace  # noqa: E402
from restraint_games import Outcome  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny_passes(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(END_TO_END)
    assert result["metrics"]["passed_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_on_one_seed():
    args = ("--workload", "oracle-ties", "--seed", "4", "--seconds", "0", "--trace", "1", "--size", "tiny")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert [(k, v["unit"]) for k, v in first["metrics"].items()] == list(PER_LAYER)
    counts = {k for k, unit in PER_LAYER if unit in ("count", "bytes")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["oracle.certificates"]["value"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "oracle-ties", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def run_ops(name):
    workload = load_workload(name)
    inputs = workload.generate(5, "tiny")
    ops = workload.ops(inputs)
    return workload, inputs, ops, {op.id: op.run(NoTrace()) for op in ops}


def test_sweep_check_catches_a_flipped_classification():
    _, _, ops, outputs = run_ops("sweep-grid")
    op = ops[0]
    assert op.check(outputs[op.id]) is None
    bad = copy.deepcopy(outputs[op.id])
    row = next(r for r in bad.rows if r.classification.value != "Invalid")
    flip = {"PoolingOnly": "Neither", "Neither": "PoolingOnly", "Both": "SeparatingOnly",
            "SeparatingOnly": "Both"}[row.classification.value]
    row.classification = type(row.classification)(flip)
    assert op.check(bad) is not None


def test_sweep_check_catches_a_missing_discrepancy():
    workload, cases, ops, outputs = run_ops("sweep-grid")
    gap = next(op for op in ops if op.id == "gap")
    assert gap.check(outputs["gap"]) is None
    assert gap.check(workload.Output(rows=[])) is not None


def test_oracle_check_catches_reordered_certificates():
    _, _, ops, outputs = run_ops("oracle-ties")
    op = next(op for op in ops if len(outputs[op.id]) > 1)
    assert op.check(outputs[op.id]) is None
    assert op.check(list(reversed(outputs[op.id]))) is not None


def _moved(result, k):
    """The result with k trials moved from its commonest outcome to the other
    outcome that play under the pooling profile can reach."""
    counts = dict(result.outcome_counts)
    src = max((Outcome.EXPLOIT, Outcome.RESTRAINT), key=counts.get)
    dst = Outcome.RESTRAINT if src is Outcome.EXPLOIT else Outcome.EXPLOIT
    counts[src] -= k
    counts[dst] += k
    return dataclasses.replace(result, outcome_counts=counts)


def test_simulate_checks_catch_shifted_counts():
    _, _, ops, outputs = run_ops("simulate-drift")
    sim, log = ops[0], next(op for op in ops if op.id == "trial-log")
    out = outputs[sim.id]
    assert sim.check(out) is None and log.check(outputs[log.id]) is None
    quarter = sum(out.result.outcome_counts.values()) // 4
    assert sim.check(dataclasses.replace(out, result=_moved(out.result, quarter))) is not None
    # a single trial moved no longer matches the per-trial log
    logged = outputs[log.id]
    assert log.check(dataclasses.replace(logged, result=_moved(logged.result, 1))) is not None


def test_cli_check_catches_a_wrong_exit_code():
    workload = load_workload("cli-mix")
    inputs = workload.generate(5, "tiny")
    try:
        op = next(op for op in workload.ops(inputs) if op.id == "classify-vb-below-c")
        out = op.run(NoTrace())
        assert op.check(out) is None
        assert op.check(subprocess.CompletedProcess(out.args, 0, b"{}", b"")) is not None
    finally:
        workload.cleanup(inputs)
