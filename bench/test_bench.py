"""Smoke tests for the benchmark itself: every workload at tiny sizes.

Run from the repository root with `python -m pytest bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jobs import Oracle, power_counts

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics every workload reports, and those that exist only where the
# workload runs that subcommand.
E2E_EVERYWHERE = {
    "wall_s", "cpu_s", "setup_s", "setup_wall_s", "startup_s", "startup_cpu_s",
    "omega_s", "peak_rss_mb", "fail_ratio",
}
E2E_BY_WORKLOAD = {
    "exact": {"temperature_s", "equilibrium_s", "prefixes_s"},
    "log": {"temperature_s", "sample_s"},
    "canonical": {"gibbs_s", "solve_temp_s", "equilibrium_s", "dimension_s"},
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line), json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_without_failures(workload, trace):
    report, result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    metrics = report["report"]
    assert metrics["fail_ratio"] == {"value": 0.0, "unit": "1", "n": result["attempted"]}
    if not trace:
        assert E2E_EVERYWHERE | E2E_BY_WORKLOAD[workload] == set(metrics)
        for name in metrics:
            assert metrics[name]["unit"] in ("s", "MB", "1") and metrics[name]["n"] >= 1
    env = report["environment"]
    assert {"python", "numpy", "nproc", "cpu", "commit", "seed", "codes"} <= set(env)
    assert {name: (c["span"], c["distinct_lengths"]) for name, c in env["codes"].items()} == {
        "canon": (1, 2), "g16": (4, 5), "g64": (11, 12)
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_miller_oracle_matches_direct_convolution():
    spec = {2: 1, 3: 3, 5: 4, 6: 8}
    n = 7
    direct = {0: 1}
    for _ in range(n):
        step = {}
        for total, c in direct.items():
            for length, d in spec.items():
                step[total + length] = step.get(total + length, 0) + c * d
        direct = step
    assert power_counts(spec, n) == direct
    assert Oracle({}).counts("canon", 9) == power_counts({1: 1, 2: 2}, 9)
