"""Smoke test of the benchmark: each workload in both modes, one small round.

Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = ("pairing", "sweep-n4", "construct", "search")


def run_bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_and_every_check_runs(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = END_TO_END if trace == 0 else PER_LAYER
    units = {name: unit for name, unit, *_ in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    checked = next(line for line in lines if line.startswith("checked "))
    ran = {item.split("=")[0] for item in checked.split()[1:]}
    ops = WORKLOADS[workload].build_round(random.Random(0), True)
    assert ran == {op.kind for op in ops if not op.probe}


def test_all_runs_each_workload():
    done = run_bench("--workload", "all", "--seed", "1", "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert {name.split(".")[0] for name in metrics} == set(NAMES)


def test_benchmark_json_lists_the_same_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(
            "--workload", "pairing", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare, script=bare / "bench" / "run.py",
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
