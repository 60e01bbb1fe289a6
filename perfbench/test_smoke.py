"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Each run must pass its output checks and print every metric BENCHMARK.json
declares, by name and unit, both as a readable line and in the final JSON.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# metrics printed under their workload-specific names as well
NAMED = {
    "cohort": ("predictions_per_s",),
    "long_stream": ("predictions_per_s",),
    "calibrate": ("calib_response_rounds_per_s",),
    "predict": ("requests_per_s", "predict_p50_ms", "predict_p99_ms"),
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_and_passes_checks(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in NAMED[workload]:
            assert name in printed, name
    assert any(line.startswith("error_rate ") for line in lines)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "cohort", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
