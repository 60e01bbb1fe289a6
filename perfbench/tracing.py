"""Spans around the calls into each ogive layer, installed from outside the package.

`Tracer.install` replaces each traced function in the module namespaces that
look it up at call time (the kernel, for example, inside `irt_core`,
`inference` and `calibration`) with a wrapper that records a span: name,
start, end, parent span, step id and a small info tuple read from the
arguments or the result.  The step id is the index of the enclosing solver
call, that is a harness step, a calibration half-step or a predict request.
Spans stay in memory; `write_spans` writes them out at the end.

`layer_metrics` turns one job's spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

from ogive import calibration, dataio, evaluation, inference, irt_core, simulate

EVAL_KINDS = evaluation.MODEL_KINDS

# per-layer metric names, their units and which way is better
PER_LAYER = (
    ("dataio.load_s", "s", "lower"),
    ("dataio.rows_per_s", "1/s", "higher"),
    ("dataio.preprocess_s", "s", "lower"),
    ("simulate.generate_s", "s", "lower"),
    ("irt_core.kernel_calls", "count", "lower"),
    ("irt_core.kernel_cells", "count", "lower"),
    ("irt_core.kernel_s", "s", "lower"),
    ("irt_core.kernel_ns_per_cell", "ns", "lower"),
    ("irt_core.objective_calls", "count", "lower"),
    ("irt_core.objective_s", "s", "lower"),
    ("inference.map_calls", "count", "lower"),
    ("inference.problems", "count", "lower"),
    ("inference.map_s", "s", "lower"),
    ("inference.self_s", "s", "lower"),
    ("inference.newton_iters", "count", "lower"),
    ("inference.iters_per_solve", "ratio", "lower"),
    ("inference.evals_per_iter", "ratio", "lower"),
    ("inference.active_ratio", "ratio", "higher"),
    ("inference.solve_calls", "count", "lower"),
    ("inference.solve_s", "s", "lower"),
    ("inference.unconverged", "count", "lower"),
    ("evaluation.steps", "count", "lower"),
    ("evaluation.cells_per_prediction", "count", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("evaluation.metrics_s", "s", "lower"),
    *((f"evaluation.model_s.{kind}", "s", "lower") for kind in EVAL_KINDS),
    ("evaluation.peak_alloc_mb", "MB", "lower"),
    ("calibration.rounds", "count", "lower"),
    ("calibration.student_step_s", "s", "lower"),
    ("calibration.item_step_s", "s", "lower"),
    ("calibration.item_solves", "count", "lower"),
    ("calibration.item_fevals", "count", "lower"),
    ("calibration.self_s", "s", "lower"),
    ("calibration.peak_alloc_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _rows_out(args, kwargs, result):
    return (result.n_responses,)


def _rows_in(args, kwargs, result):
    return (_first(args, kwargs, "data").n_responses,)


def _cells(args, kwargs, result):
    return (int(np.size(_first(args, kwargs, "z"))),)


def _batched(args, kwargs, result):
    _, converged, iterations = result
    n = len(iterations)
    return (n, int(iterations.sum()), int(iterations.max()) if n else 0,
            int(n - np.count_nonzero(converged)))


def _single(args, kwargs, result):
    return (1, result.iterations, result.iterations, 0 if result.converged else 1)


def _report(args, kwargs, result):
    return (result.model, result.n_predictions)


def _rounds(args, kwargs, result):
    return (result.meta.rounds,)


def _nfev(args, kwargs, result):
    return (int(result.nfev),)


# (span name, namespaces that look the function up, attribute, info, opens a step)
TARGETS = (
    ("dataio.load", (dataio,), "load_interactions", _rows_out, False),
    ("dataio.preprocess", (dataio,), "preprocess", _rows_in, False),
    ("simulate.generate", (simulate,), "generate", None, False),
    ("irt_core.kernel", (irt_core, inference, calibration), "bernoulli_probit_terms", _cells, False),
    ("irt_core.objective", (inference,), "approx_log_posterior_scalar", None, False),
    ("irt_core.objective", (inference,), "approx_log_posterior_vector", None, False),
    ("inference.batched", (evaluation, calibration), "batched_scalar_map", _batched, True),
    ("inference.batched", (evaluation,), "batched_vector_map", _batched, True),
    ("inference.single", (inference,), "map_estimate_scalar", _single, True),
    ("inference.single", (inference,), "map_estimate_vector", _single, True),
    ("inference.solve", (np.linalg,), "solve", None, False),
    ("evaluation.run", (evaluation,), "run_online_evaluation", _report, False),
    ("evaluation.metrics", (evaluation,), "_auc_from_arrays", None, False),
    ("evaluation.metrics", (evaluation,), "bucket_by_student_percent_correct", None, False),
    ("calibration.calibrate", (calibration,), "calibrate", _rounds, False),
    ("calibration.item_solve", (calibration,), "minimize", _nfev, False),
)

NAME, START, END, PARENT, STEP, INFO = range(6)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.step = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def _wrap(self, name, fn, info, opens_step):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_step:
                self.step += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, owners, attr, info, opens_step in TARGETS:
            for owner in owners:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                self._patches.replace(owner, attr, self._wrap(name, fn, info, opens_step))

    def uninstall(self) -> None:
        self._patches.undo()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class PeakProbe:
    """Peak traced allocation inside each top-level evaluation and calibration call."""

    def __init__(self):
        self.peak_mb = {"evaluation": 0.0, "calibration": 0.0}
        self._patches = _Patches()

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[layer] = max(self.peak_mb[layer], peak)

        return probed

    def __enter__(self):
        tracemalloc.start()
        self._patches.replace(evaluation, "run_online_evaluation",
                              self._wrap("evaluation", evaluation.run_online_evaluation))
        self._patches.replace(calibration, "calibrate",
                              self._wrap("calibration", calibration.calibrate))
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        tracemalloc.stop()


def layer_metrics(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer metrics of one job's spans, `base` being the first one's span id."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    context = [""] * len(spans)  # nearest enclosing evaluation or calibration span
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        p = s[PARENT] - base if s[PARENT] >= 0 else -1
        if p >= 0:
            child_time[p] += dur[i]
            children[p].append(i)
        if s[NAME] in ("evaluation.run", "calibration.calibrate"):
            context[i] = s[NAME]
        elif p >= 0:
            context[i] = context[p]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def info_sum(name, field=0):
        return sum(spans[i][INFO][field] for i in by_name[name])

    def self_time(indices):
        return sum(dur[i] - child_time[i] for i in indices)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["dataio.load_s"] = total("dataio.load")
    m["dataio.rows_per_s"] = ratio(info_sum("dataio.load"), m["dataio.load_s"])
    m["dataio.preprocess_s"] = total("dataio.preprocess")
    m["simulate.generate_s"] = total("simulate.generate")

    kernel = by_name["irt_core.kernel"]
    m["irt_core.kernel_calls"] = len(kernel)
    m["irt_core.kernel_cells"] = info_sum("irt_core.kernel")
    m["irt_core.kernel_s"] = total("irt_core.kernel")
    m["irt_core.kernel_ns_per_cell"] = 1e9 * ratio(m["irt_core.kernel_s"], m["irt_core.kernel_cells"])
    m["irt_core.objective_calls"] = len(by_name["irt_core.objective"])
    m["irt_core.objective_s"] = total("irt_core.objective")

    solvers = by_name["inference.batched"] + by_name["inference.single"]
    evals = lockstep = rows_iterated = 0
    for i in solvers:
        problems, iters, max_iters, unconverged = spans[i][INFO]
        m["inference.problems"] += problems
        m["inference.newton_iters"] += iters
        m["inference.unconverged"] += unconverged
        # objective evaluations after the initial one, per lockstep iteration
        evals += sum(1 for c in children[i]
                     if spans[c][NAME] in ("irt_core.kernel", "irt_core.objective")) - 1
        lockstep += max_iters
        rows_iterated += problems * max_iters
    m["inference.map_calls"] = len(solvers)
    m["inference.map_s"] = sum(dur[i] for i in solvers)
    m["inference.self_s"] = self_time(solvers)
    m["inference.iters_per_solve"] = ratio(m["inference.newton_iters"], m["inference.problems"])
    m["inference.evals_per_iter"] = ratio(evals, lockstep)
    m["inference.active_ratio"] = ratio(m["inference.newton_iters"], rows_iterated)
    m["inference.solve_calls"] = len(by_name["inference.solve"])
    m["inference.solve_s"] = total("inference.solve")

    runs = by_name["evaluation.run"]
    m["evaluation.steps"] = sum(
        1 for i in by_name["inference.batched"] if context[i] == "evaluation.run"
    )
    m["evaluation.cells_per_prediction"] = ratio(
        sum(spans[i][INFO][0] for i in kernel if context[i] == "evaluation.run"),
        sum(spans[i][INFO][1] for i in runs if spans[i][INFO][0] != "spc"),
    )
    m["evaluation.self_s"] = self_time(runs)
    m["evaluation.metrics_s"] = sum(
        dur[i] for i in by_name["evaluation.metrics"]
        if spans[i][PARENT] < 0 or spans[spans[i][PARENT] - base][NAME] != "evaluation.metrics"
    )
    for i in runs:
        m[f"evaluation.model_s.{spans[i][INFO][0]}"] += dur[i]

    cals = by_name["calibration.calibrate"]
    m["calibration.rounds"] = info_sum("calibration.calibrate")
    m["calibration.student_step_s"] = sum(
        dur[i] for i in by_name["inference.batched"] if context[i] == "calibration.calibrate"
    )
    m["calibration.item_step_s"] = total("calibration.item_solve")
    m["calibration.item_solves"] = len(by_name["calibration.item_solve"])
    m["calibration.item_fevals"] = info_sum("calibration.item_solve")
    m["calibration.self_s"] = self_time(cals)
    m["trace.spans"] = len(spans)
    return m


def write_spans(spans: list[list], phases: list[tuple[str, int, int]], path) -> None:
    """Write spans as JSON lines, each tagged with the phase (setup, job k) it belongs to."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, lo, hi in phases:
            for i in range(lo, hi):
                s = spans[i]
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "step": s[STEP], "phase": phase,
                    "info": list(s[INFO]) if s[INFO] is not None else None,
                }) + "\n")
