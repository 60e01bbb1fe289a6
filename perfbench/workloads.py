"""The four benchmark workloads: seeded input generation, one timed job, output checks.

Each workload has a generator (`setup`), a one-time `prepare` step that runs
before timing, and a `job` that goes from loading the inputs to the last
result.  A job returns a `Job` with its wall time, the work it completed, and
the outputs its checks need; `check` turns those outputs into attempted and
failed operation counts.

The package is called through its module objects (`dataio.load_interactions`,
not a name imported from it), so the tracer in `tracing.py` can wrap each
layer from outside without editing the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ogive import calibration, concept_graph, dataio, evaluation, inference, irt_core, simulate

WORKLOADS = ("cohort", "long_stream", "calibrate", "predict")

# Generator parameters by workload and scale.  "full" is what the benchmark
# measures; "toy" is the smoke-test size.
PARAMS = {
    "cohort": {
        "full": {"students": 300, "responses": 50},
        "toy": {"students": 30, "responses": 20},
    },
    "long_stream": {
        "full": {"students": 4, "responses": 1000},
        "toy": {"students": 2, "responses": 80},
    },
    "calibrate": {
        "full": {"students": 600, "responses": 100, "items": 150, "rounds": 10},
        "toy": {"students": 150, "responses": 60, "items": 20, "rounds": 10},
    },
    "predict": {
        "full": {"requests": 600, "min_events": 50, "max_events": 400, "candidates": 10},
        "toy": {"requests": 12, "min_events": 20, "max_events": 60, "candidates": 10},
    },
}

# The C7 acceptance scenario's law and tuned menu, at the cohort size above.
C7_SECONDS_PER_UNIT = 3600.0
C7_MENU = (
    evaluation.ModelVariant("spc"),
    evaluation.ModelVariant("static_2po", nu2=0.0, lam=0.6),
    evaluation.ModelVariant("temporal_2po", nu2=0.6, lam=0.6),
    evaluation.ModelVariant("factorial_mvn", nu2=0.0, lam=0.1, gamma=0.0),
    evaluation.ModelVariant("correlated_mvn", nu2=0.0, lam=0.1, gamma=0.3),
    evaluation.ModelVariant("tskirt", nu2=0.1, lam=0.15, gamma=0.3),
)
LONG_STREAM_MENU = tuple(
    evaluation.ModelVariant.from_name(k) for k in ("static_2po", "temporal_2po", "tskirt")
)
PREDICT_MODEL = evaluation.ModelVariant.from_name("tskirt")

# Output-check tolerances.
ACCURACY_FLIPS = 3  # accuracy may differ from its reference by this many predictions
MEAN_LL_TOL = 1e-6  # absolute tolerance on mean_log_likelihood against its reference
BAND_ACCURACY = 0.02  # margins around the reference range for seeds outside the table
BAND_MEAN_LL = 0.05
RECOVERY_DIFFICULTY = 0.9  # C6 thresholds
RECOVERY_DISCRIMINATION = 0.7
ORACLE_TOL = 1e-8  # C5 tolerance
ORACLE_REQUESTS = 3  # predict requests cross-checked against the evaluation harness

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def scenario(workload: str, seed: int, scale: str) -> simulate.SimulationScenario:
    p = PARAMS[workload][scale]
    if workload == "cohort":
        return simulate.SimulationScenario(
            seed=seed,
            n_students=p["students"],
            graph=concept_graph.chain_graph(10),
            bank_spec=simulate.ItemBankSpec(10, (0.8, 2.2), (-1.5, 1.5)),
            true_temporal=irt_core.TemporalConfig(0.1, "wall", C7_SECONDS_PER_UNIT),
            lam=0.3,
            gamma=1.2,
            responses_per_student=p["responses"],
            assignment="uniform",
            drift_coupling="prior_shaped",
            inter_arrival="exponential",
            mean_inter_arrival_seconds=0.8 * C7_SECONDS_PER_UNIT,
        )
    if workload == "long_stream":
        return simulate.SimulationScenario(
            seed=seed,
            n_students=p["students"],
            graph=concept_graph.chain_graph(10),
            true_temporal=irt_core.TemporalConfig(0.01, "step"),
            lam=1.0,
            gamma=0.5,
            responses_per_student=p["responses"],
            assignment="blocks",
        )
    if workload == "calibrate":
        return simulate.SimulationScenario(
            seed=seed,
            n_students=p["students"],
            graph=concept_graph.ConceptGraph(("all",)),
            bank_spec=simulate.ItemBankSpec(p["items"], (0.6, 2.0), (-2.0, 2.0)),
            lam=1.0,  # student prior N(0, 0.5), the calibration prior
            responses_per_student=p["responses"],
        )
    if workload == "predict":
        # streams of the longest length, cut to their request's length by `setup`
        return simulate.SimulationScenario(
            seed=seed,
            n_students=p["requests"],
            graph=concept_graph.chain_graph(10),
            true_temporal=irt_core.TemporalConfig(0.01, "step"),
            lam=1.0,
            gamma=0.5,
            responses_per_student=p["max_events"],
        )
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, scale: str, out: Path) -> None:
    """Generate one workload's inputs from its seed and write them under `out`."""
    out.mkdir(parents=True, exist_ok=True)
    p = PARAMS[workload][scale]
    result = simulate.generate(scenario(workload, seed, scale))
    data = result.dataset
    if workload == "predict":
        # history lengths evenly spaced over [min_events, max_events] and
        # shuffled, so every seed asks for the same total work
        rng = np.random.default_rng([seed, 1])
        lengths = np.linspace(p["min_events"], p["max_events"], p["requests"]).round()
        lengths = lengths.astype(int)[rng.permutation(p["requests"])]
        data = dataio.Dataset({sid: recs[:n] for (sid, recs), n
                               in zip(data.students.items(), lengths)})
        ids = list(result.bank.items)
        with open(out / "requests.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("student_id", "candidate_items"))
            for sid in data.students:
                picks = rng.choice(len(ids), size=p["candidates"], replace=False)
                writer.writerow((sid, ";".join(ids[j] for j in picks)))
    dataio.write_interactions(data, out / "interactions.csv")
    result.bank.save_csv(out / "bank.csv")
    concept_graph.save_graph(result.scenario.graph, out / "graph.txt")
    with open(out / "params.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "scale": scale, **p}, fh,
                  sort_keys=True)
        fh.write("\n")


@dataclass
class Job:
    """One timed job: its wall time, its work, and what the checks read."""

    seconds: float
    work: float  # operations completed: predictions, response-rounds or requests
    work_seconds: float  # the interval `work` is rated over
    outputs: dict = field(default_factory=dict)
    digest: str = ""
    latencies: list = field(default_factory=list)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class Context:
    """Per-run state: the input directory, references, and prepared requests."""

    def __init__(self, workload: str, seed: int, scale: str, inputs: Path):
        self.workload, self.seed, self.scale, self.inputs = workload, seed, scale, inputs
        self.prep_attempted = 0
        self.prep_failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.requests = None

    # -- prepare ----------------------------------------------------------

    def prepare(self) -> None:
        """Load what the checks compare against; runs once, before any timing."""
        if self.workload in ("cohort", "long_stream"):
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                self.reference = json.load(fh)[self.workload][self.scale]
        elif self.workload == "predict":
            self._prepare_predict()

    def _prepare_predict(self) -> None:
        d = self.inputs
        data = dataio.load_interactions(d / "interactions.csv")
        self.bank = calibration.ItemBank.load_csv(d / "bank.csv")
        graph = concept_graph.load_graph(d / "graph.txt")
        self.prior = concept_graph.build_prior(graph, PREDICT_MODEL.lam, PREDICT_MODEL.gamma)
        self.temporal = irt_core.TemporalConfig(PREDICT_MODEL.nu2, "step")
        with open(d / "requests.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        self.requests = [(data.students[sid], items.split(";")) for sid, items in rows]
        # the reference is a fresh cold-start solve of every request
        probs, converged, _ = self._answer_all()
        self.reference = probs
        self.prep_attempted += len(self.requests)
        self.prep_failed += int((~converged).sum())
        self._oracle_check(graph)

    def _oracle_check(self, graph) -> None:
        """Cross-check the single-history path against the evaluation harness (C5).

        The harness predicts a candidate appended to the history from exactly
        the same prefix, through the batched lockstep solver.
        """
        order = sorted(range(len(self.requests)), key=lambda i: len(self.requests[i][0]))
        for i in order[:ORACLE_REQUESTS]:
            records, items = self.requests[i]
            last = records[-1].timestamp
            students = {}
            for k, item_id in enumerate(items):
                sid = f"r{i}c{k}"
                students[sid] = [
                    dataio.InteractionRecord(sid, r.item_id, r.correct, r.timestamp)
                    for r in records
                ] + [dataio.InteractionRecord(sid, item_id, 0, last + 1)]
            report = evaluation.run_online_evaluation(
                dataio.Dataset(students), self.bank, PREDICT_MODEL, prior_graph=graph,
                n_buckets=1,
            )
            ends = np.cumsum(np.bincount(report.student_index))
            harness = {sid: report.probabilities[e - 1] for sid, e in zip(report.students, ends)}
            got = np.array([harness[f"r{i}c{k}"] for k in range(len(items))])
            self.prep_attempted += 1
            if not np.all(np.abs(got - self.reference[i]) <= ORACLE_TOL):
                self.prep_failed += 1
                self.problems.append(
                    f"request {i}: single-history path differs from the harness by "
                    f"{float(np.max(np.abs(got - self.reference[i]))):.3g}"
                )

    # -- jobs -------------------------------------------------------------

    def job(self) -> Job:
        return getattr(self, "_job_" + self.workload)()

    def _evaluate(self, menu, preprocess: bool, clock: str, seconds_per_unit: float) -> Job:
        d = self.inputs
        t0 = perf_counter()
        data = dataio.load_interactions(d / "interactions.csv")
        if preprocess:
            data = dataio.preprocess(data)
        bank = calibration.ItemBank.load_csv(d / "bank.csv")
        graph = concept_graph.load_graph(d / "graph.txt")
        reports = [
            evaluation.run_online_evaluation(
                data, bank, model, prior_graph=graph, clock=clock,
                seconds_per_unit=seconds_per_unit,
            )
            for model in menu
        ]
        seconds = perf_counter() - t0
        n_pred = sum(r.n_predictions for r in reports)
        return Job(seconds, n_pred, seconds, {"reports": reports},
                   _digest(r.probabilities for r in reports))

    def _job_cohort(self) -> Job:
        return self._evaluate(C7_MENU, True, "wall", C7_SECONDS_PER_UNIT)

    def _job_long_stream(self) -> Job:
        return self._evaluate(LONG_STREAM_MENU, False, "step", 1.0)

    def _job_calibrate(self) -> Job:
        d = self.inputs
        rounds = PARAMS["calibrate"][self.scale]["rounds"]
        t0 = perf_counter()
        data = dataio.preprocess(dataio.load_interactions(d / "interactions.csv"))
        t1 = perf_counter()
        bank = calibration.calibrate(data, calibration.CalibrationConfig(max_outer_rounds=rounds))
        t2 = perf_counter()
        truth = calibration.ItemBank.load_csv(d / "bank.csv")
        corr = calibration.recovery_correlations(bank, truth)
        seconds = perf_counter() - t0
        _, alphas, betas, _ = bank.arrays()
        work = data.n_responses * bank.meta.rounds
        return Job(seconds, work, t2 - t1,
                   {"alphas": alphas, "betas": betas, "corr": corr, "n_items": len(truth)},
                   _digest((alphas, betas)))

    def _answer_all(self):
        """Answer every request in order; returns probabilities, converged flags, latencies."""
        probs = np.empty((len(self.requests), len(self.requests[0][1])))
        converged = np.empty(len(self.requests), dtype=bool)
        latencies = []
        bank, prior, temporal = self.bank, self.prior, self.temporal
        for i, (records, items) in enumerate(self.requests):
            t0 = perf_counter()
            events = [
                irt_core.ResponseEvent(bank[r.item_id], r.correct, step_index=j + 1,
                                       timestamp=float(r.timestamp))
                for j, r in enumerate(records)
            ]
            est = inference.map_estimate_vector(events, float(len(events) + 1), temporal, prior)
            probs[i] = [inference.predict_next(est, bank[item_id]) for item_id in items]
            latencies.append(perf_counter() - t0)
            converged[i] = est.converged
        return probs, converged, latencies

    def _job_predict(self) -> Job:
        t0 = perf_counter()
        probs, converged, latencies = self._answer_all()
        seconds = perf_counter() - t0
        return Job(seconds, len(self.requests), seconds,
                   {"probs": probs, "converged": converged}, _digest((probs,)), latencies)

    # -- checks -----------------------------------------------------------

    def check(self, job: Job) -> tuple[int, int]:
        """(attempted, failed) operations of one job; problems go to self.problems."""
        return getattr(self, "_check_" + self.workload)(job)

    def _check_reports(self, job: Job) -> tuple[int, int]:
        attempted = failed = 0
        ref = self.reference.get(str(self.seed))
        for r in job.outputs["reports"]:
            n = r.n_predictions
            attempted += n
            p = r.probabilities
            bad = int((~(np.isfinite(p) & (p >= 0.0) & (p <= 1.0))).sum())
            why = self._reference_mismatch(r, ref)
            if why:
                self.problems.append(f"{r.model}: {why}")
                failed += n
            else:
                failed += min(n, bad + r.n_unconverged)
                if bad:
                    self.problems.append(f"{r.model}: {bad} probabilities outside [0, 1]")
                if r.n_unconverged:
                    self.problems.append(f"{r.model}: {r.n_unconverged} unconverged solves")
        return attempted, failed

    _check_cohort = _check_reports
    _check_long_stream = _check_reports

    def _reference_mismatch(self, report, ref) -> str:
        """Why a report disagrees with its seed-commit reference, or ''.

        Seeds in the table must match their own values; other seeds must fall
        inside the range the table spans, widened by the band margins.
        """
        acc, mll = report.accuracy, report.mean_log_likelihood
        if ref is not None:
            r_acc, r_mll, r_n = ref[report.model]
            if report.n_predictions != r_n:
                return f"{report.n_predictions} predictions, reference {r_n}"
            if abs(acc - r_acc) > ACCURACY_FLIPS / r_n:
                return f"accuracy {acc!r}, reference {r_acc!r}"
            if abs(mll - r_mll) > MEAN_LL_TOL:
                return f"mean_log_likelihood {mll!r}, reference {r_mll!r}"
            return ""
        accs = [v[report.model][0] for v in self.reference.values()]
        mlls = [v[report.model][1] for v in self.reference.values()]
        if not min(accs) - BAND_ACCURACY <= acc <= max(accs) + BAND_ACCURACY:
            return f"accuracy {acc!r} outside the reference band"
        if not min(mlls) - BAND_MEAN_LL <= mll <= max(mlls) + BAND_MEAN_LL:
            return f"mean_log_likelihood {mll!r} outside the reference band"
        return ""

    def _check_calibrate(self, job: Job) -> tuple[int, int]:
        o = job.outputs
        n = o["n_items"]
        corr = o["corr"]
        finite = np.isfinite(o["alphas"]) & np.isfinite(o["betas"])
        if corr["n_shared_items"] != n:
            self.problems.append(f"calibrated {corr['n_shared_items']} of {n} items")
            return n, n
        if corr["difficulty"] < RECOVERY_DIFFICULTY or corr["discrimination"] < RECOVERY_DISCRIMINATION:
            self.problems.append(f"recovery below the C6 thresholds: {corr}")
            return n, n
        if not finite.all():
            self.problems.append(f"{int((~finite).sum())} items with non-finite parameters")
        return n, int((~finite).sum())

    def _check_predict(self, job: Job) -> tuple[int, int]:
        probs, converged = job.outputs["probs"], job.outputs["converged"]
        ok = np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0)
        ok &= np.abs(probs - self.reference) <= ORACLE_TOL
        bad = ~(ok.all(axis=1) & converged)
        if bad.any():
            self.problems.append(
                f"{int(bad.sum())} requests unconverged, out of range, or off their "
                "cold-start reference"
            )
        return len(probs), int(bad.sum())
