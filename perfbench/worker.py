"""Fresh-process half of the benchmark; `run.py` starts it, one process per role.

  worker.py setup   --workload W --seed N --scale S --out DIR
      generate the workload's inputs and write them under DIR.
  worker.py measure --workload W --seed N --scale S --inputs DIR --seconds T
                    --trace 0|1 --deadline D --result FILE --trace-out FILE
      run timed jobs for T seconds (half untraced, half traced with --trace 1)
      and write the measurements to FILE as JSON.

The BLAS thread count is fixed by `run.py` through the environment before
this process imports numpy.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ogive  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(ogive.__file__).resolve().parent != ROOT / "src" / "ogive":
    sys.exit(f"imported ogive from {ogive.__file__}, not from {ROOT / 'src'}")

# what the job's work is called, per workload, for the readable report
WORK_NAMES = {
    "cohort": "predictions_per_s",
    "long_stream": "predictions_per_s",
    "calibrate": "calib_response_rounds_per_s",
    "predict": "requests_per_s",
}


class Session:
    """Runs and checks jobs, keeping the operation tallies of one measuring process."""

    def __init__(self, ctx: workloads.Context, deadline: float):
        self.ctx = ctx
        self.deadline = deadline
        self.attempted = ctx.prep_attempted
        self.failed = ctx.prep_failed
        self.digest = None
        self.broken = False

    def run_one(self):
        """One checked job, or None when it raised or failed a check."""
        try:
            job = self.ctx.job()
            attempted, failed = self.ctx.check(job)
        except Exception:
            traceback.print_exc()
            self.ctx.problems.append("a job raised: " + traceback.format_exc(limit=1).strip())
            self.attempted += 1
            self.failed += 1
            self.broken = True
            return None
        if self.digest is None:
            self.digest = job.digest
        elif job.digest != self.digest:
            self.ctx.problems.append("outputs differ from the first job's (not bit-identical)")
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        return job if failed == 0 else None

    def run_for(self, seconds: float, min_jobs: int, after_each=None):
        """Jobs for `seconds` of wall time, at least `min_jobs`, until the deadline.

        Returns the jobs that passed their checks; `after_each` sees every job
        as `run_one` returned it.
        """
        jobs = []
        end = perf_counter() + seconds
        count = 0
        while (count < min_jobs or perf_counter() < end) and perf_counter() < self.deadline:
            job = self.run_one()
            count += 1
            if after_each is not None:
                after_each(job)
            if self.broken:
                break
            if job is not None:
                jobs.append(job)
        return jobs


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload: str, jobs) -> tuple[dict, dict, dict]:
    run_s = statistics.median(j.seconds for j in jobs)
    rate = statistics.median(j.work / j.work_seconds for j in jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": _metric(run_s, "s"),
        "throughput_per_s": _metric(rate, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    # the same measurements under their workload-specific names
    named = {WORK_NAMES[workload]: _metric(rate, "1/s")}
    info = {"timed_jobs": len(jobs)}
    if workload == "predict":
        lat_ms = np.array([x for j in jobs for x in j.latencies]) * 1e3
        named["predict_p50_ms"] = _metric(np.percentile(lat_ms, 50), "ms")
        named["predict_p99_ms"] = _metric(np.percentile(lat_ms, 99), "ms")
        info["latency_samples"] = int(lat_ms.size)
    return metrics, named, info


def traced_metrics(session: Session, args, untraced) -> tuple[dict, dict]:
    """Per-layer metrics from traced jobs, plus the tracing overhead."""
    tracer = tracing.Tracer()
    spans = tracer.spans
    phases = []  # (phase, first span id, end span id)
    per_job = []

    def close_job(job):
        lo = phases[-1][2] if phases else 0
        phases.append((f"job{len(phases)}", lo, len(spans)))
        if job is not None:
            per_job.append(tracing.layer_metrics(spans[lo:], lo))

    with tracer:
        traced = session.run_for(args.seconds / 2.0, 2, close_job)
        lo = len(spans)
        workloads.setup(args.workload, args.seed, args.scale,
                        Path(args.inputs).parent / "traced-setup")
        setup_metrics = tracing.layer_metrics(spans[lo:], lo)
        phases.append(("setup", lo, len(spans)))
    with tracing.PeakProbe() as probe:
        session.run_one()
    tracing.write_spans(spans, phases, args.trace_out)

    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {}
    for name, unit in units.items():
        values = [m[name] for m in per_job]
        metrics[name] = _metric(statistics.median(values) if values else 0.0, unit)
    metrics["simulate.generate_s"] = _metric(setup_metrics["simulate.generate_s"], "s")
    metrics["evaluation.peak_alloc_mb"] = _metric(probe.peak_mb["evaluation"], "MB")
    metrics["calibration.peak_alloc_mb"] = _metric(probe.peak_mb["calibration"], "MB")
    untraced_s = statistics.median(j.seconds for j in untraced) if untraced else 0.0
    traced_s = statistics.median(j.seconds for j in traced) if traced else 0.0
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    info = {"untraced_run_s": untraced_s, "traced_run_s": traced_s,
            "traced_jobs": len(traced), "trace_file": str(args.trace_out),
            "untraced_targets": tracer.missing}
    return metrics, info


def measure(args) -> dict:
    start = perf_counter()
    ctx = workloads.Context(args.workload, args.seed, args.scale, Path(args.inputs))
    ctx.prepare()
    session = Session(ctx, start + args.deadline)
    if args.trace:
        untraced = session.run_for(args.seconds / 2.0, 2)
        metrics, info = traced_metrics(session, args, untraced)
        named = {}
    else:
        jobs = session.run_for(args.seconds, 1)
        metrics, named, info = end_to_end(args.workload, jobs) if jobs else ({}, {}, {})
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": ctx.problems,
        "metrics": metrics,
        "named": named,
        "info": info,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=("full", "toy"))
    ap.add_argument("--out")
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--deadline", type=float, default=150.0)
    ap.add_argument("--result")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    if args.role == "setup":
        workloads.setup(args.workload, args.seed, args.scale, Path(args.out))
        return 0
    result = measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
