"""Write reference.json: each model's accuracy and mean log-likelihood per seed.

    python3 perfbench/make_reference.py

The table holds the values the package gave when the benchmark was defined;
the output checks in `workloads.py` compare every later run against it.
Regenerate it only when a change is meant to alter predictions, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = {"full": 100, "toy": 10}  # the table covers seeds 0..n-1 at each scale


def reference_row(workload: str, seed: int, scale: str, work: Path) -> dict:
    inputs = work / f"{workload}-{scale}-{seed}"
    workloads.setup(workload, seed, scale, inputs)
    try:
        job = workloads.Context(workload, seed, scale, inputs).job()
    finally:
        shutil.rmtree(inputs)
    return {r.model: [r.accuracy, r.mean_log_likelihood, r.n_predictions]
            for r in job.outputs["reports"]}


def main() -> int:
    work = ROOT / ".perfbench" / "reference"
    table = {}
    for workload in ("cohort", "long_stream"):
        table[workload] = {}
        for scale, n in SEEDS.items():
            rows = {}
            for seed in range(n):
                rows[str(seed)] = reference_row(workload, seed, scale, work)
                print(workload, scale, seed, file=sys.stderr)
            table[workload][scale] = rows
    shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
