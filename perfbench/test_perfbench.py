"""Smoke tests for the benchmark harness, at its tiny ``--size smoke``.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["rounds", "truthfulness", "dynamics", "price-benchmarks"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_and_digest(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    result, _ = result_and_digest(bench("--workload", workload, "--seed", "7", "--trace", str(trace)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names
    if trace and workload != "price-benchmarks":
        assert result["metrics"]["linineq.find_point.calls"]["value"] == 0
        assert result["metrics"]["linineq.enumerate_cells.cells"]["value"] == 0


def test_same_seed_gives_same_reports_and_another_seed_does_not():
    _, first = result_and_digest(bench("--workload", "rounds", "--seed", "3", "--trace", "0"))
    _, again = result_and_digest(bench("--workload", "rounds", "--seed", "3", "--trace", "1"))
    _, other = result_and_digest(bench("--workload", "rounds", "--seed", "4", "--trace", "0"))
    assert first == again != other


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "rounds", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
