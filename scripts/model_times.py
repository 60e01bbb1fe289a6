"""Time every model of the benchmark's evaluation menus in-process and print its bits.

    python3 scripts/model_times.py

Generates the seed-0 full-size `cohort` and `long_stream` inputs into a fresh
temporary directory through `perfbench/workloads.setup`, and loads them as
those workloads' jobs do.  Then, for each model of each workload's menu, it
runs `run_online_evaluation` five times and prints one line: the workload,
the model, the best of the five wall times in seconds, the report's count of
unconverged solves and the sha256 of its probabilities.  numpy runs on one
BLAS thread.  Run it alternately in two checkouts to compare the cost of each
model and to check that their predictions are bit-identical.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ogive import calibration, concept_graph, dataio, evaluation  # noqa: E402

import workloads  # noqa: E402

REPEATS = 5
# workload -> (menu, preprocess, clock, seconds_per_unit), as its benchmark job runs it
RUNS = {
    "cohort": (workloads.C7_MENU, True, "wall", workloads.C7_SECONDS_PER_UNIT),
    "long_stream": (workloads.LONG_STREAM_MENU, False, "step", 1.0),
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for workload, (menu, preprocess, clock, seconds_per_unit) in RUNS.items():
            inputs = Path(tmp) / workload
            workloads.setup(workload, 0, "full", inputs)
            data = dataio.load_interactions(inputs / "interactions.csv")
            if preprocess:
                data = dataio.preprocess(data)
            bank = calibration.ItemBank.load_csv(inputs / "bank.csv")
            graph = concept_graph.load_graph(inputs / "graph.txt")
            for model in menu:
                best = float("inf")
                for _ in range(REPEATS):
                    t0 = perf_counter()
                    report = evaluation.run_online_evaluation(
                        data, bank, model, prior_graph=graph, clock=clock,
                        seconds_per_unit=seconds_per_unit,
                    )
                    best = min(best, perf_counter() - t0)
                digest = hashlib.sha256(report.probabilities.tobytes()).hexdigest()
                print(f"{workload:<12} {model.kind:<15} {best:.4f} s  "
                      f"unconverged {report.n_unconverged}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
