"""Measure the benchmark's baseline: every workload on ten seeds.

    python3 bench/baseline.py

Runs bench/run.py once per workload and seed (1..10) with tracing off and
run_seconds from BENCHMARK.json, then once per workload with tracing on
(seed 1), and writes bench/baseline.json: for every metric the median,
the quartiles and the spread (quartile distance over the median), with a
description of the machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("pairing", "sweep-n4", "construct", "search")
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "command": "python3 bench/baseline.py",
        "run_seconds": seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for name in NAMES:
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        metrics = {
            metric: {
                "unit": runs[0]["metrics"][metric]["unit"],
                **summarise([r["metrics"][metric]["value"] for r in runs]),
            }
            for metric in runs[0]["metrics"]
        }
        traced = run(name, SEEDS[0], seconds, 1)["metrics"]
        report["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed_1": {k: v["value"] for k, v in traced.items()},
        }
        for metric, row in metrics.items():
            print(f"{name:10s} {metric:14s} median {row['median']:12.5g} spread {row['spread']:.4f}")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
