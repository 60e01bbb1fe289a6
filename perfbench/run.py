"""ogive benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cohort,long_stream,calibrate,predict}
                             --seed N --seconds T --trace {0,1} [--scale toy]

Run it from the root of a checkout; it reads the package from `src/` there
and writes only under `.perfbench/` there.  It sets up the workload's inputs
from the seed three times, each in a fresh process, then measures in one more
fresh process: for T seconds with tracing off (`--trace 0`, end-to-end
metrics), or for T/2 seconds untraced and T/2 seconds traced (`--trace 1`,
per-layer metrics).  Readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit status: 0 after a measurement, 1 when nothing could be
measured, 2 when the checkout has no `src/ogive`.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cohort", "long_stream", "calibrate", "predict")  # as in workloads.py, without numpy
SETUPS = 3
# what one operation is, the base of error_rate (plus one setup determinism check)
OPERATIONS = {
    "cohort": "predictions scored",
    "long_stream": "predictions scored",
    "calibrate": "items calibrated",
    "predict": "requests answered",
}
BLAS_THREADS = 1  # at most nproc; a fixed count keeps runs comparable
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


def report_problems(problems, file=sys.stdout) -> None:
    for problem, n in Counter(problems).items():
        print(f"check failed: {problem}" + (f" ({n} times)" if n > 1 else ""), file=file)


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "toy"),
                    help="input size; toy is for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be >= 1", 2)
    if not (ROOT / "src" / "ogive" / "__init__.py").is_file():
        return fail(f"no ogive package under {ROOT / 'src'}", 2)

    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = monotonic()
    env = child_env()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    try:
        setup_s = []
        for k in range(SETUPS):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(WORKER), "setup", *common, "--out", str(work / f"inputs{k}")],
                env=env, timeout=max(1.0, RUN_LIMIT_S - (monotonic() - started)),
            )
            setup_s.append(perf_counter() - t0)
            if proc.returncode != 0:
                return fail(f"setup exited with status {proc.returncode}", 1)
        identical = all(same_tree(work / "inputs0", work / f"inputs{k}") for k in range(1, SETUPS))

        result_file = work / "result.json"
        remaining = RUN_LIMIT_S - (monotonic() - started)
        proc = subprocess.run(
            [sys.executable, str(WORKER), "measure", *common,
             "--inputs", str(work / "inputs0"), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--deadline", str(max(1.0, remaining - 10.0)),
             "--result", str(result_file), "--trace-out", str(trace_out)],
            env=env, timeout=max(1.0, remaining),
        )
        if proc.returncode != 0 or not result_file.is_file():
            return fail(f"measurement exited with status {proc.returncode}", 1)
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return fail(f"run did not finish within {RUN_LIMIT_S:.0f} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"] + 1
    failed = result["failed"] + (0 if identical else 1)
    problems = result["problems"] + ([] if identical else ["setups gave different inputs"])
    metrics = result["metrics"]
    info = result["info"]
    if not metrics:
        report_problems(problems, sys.stderr)
        return fail("no job passed its checks; nothing was measured", 1)
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"}, **metrics}

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"seconds {args.seconds}  trace {args.trace}  blas_threads {BLAS_THREADS}")
    print(f"setups: {', '.join(f'{s:.3f}' for s in setup_s)} s (import + generate + write, "
          f"fresh process each); inputs identical: {identical}")
    for name, value in info.items():
        print(f"info {name}: {value}")
    for name, m in {**metrics, **result["named"]}.items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':<34} {failed / attempted:>16.6g} "
          f"({failed} failed of {attempted} operations: {OPERATIONS[args.workload]})")
    report_problems(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
