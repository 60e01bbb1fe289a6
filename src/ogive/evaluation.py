"""Online next-response evaluation: predict, then reveal, one event at a time.

For every response in a student's stream the engine produces a probability
from strictly prior history of that student, then scores it.  Latent-trait
variants re-solve the MAP proficiency at each step (warm-started, solved in
lockstep across students); the SPC baseline predicts the student's running
fraction correct so far, 0.5 before the first response.  All per-student
computations are elementwise per row, so predictions for one student never
depend on which other students are present.  `model_prior` and
`record_columns` are the harness's setup, shared with `ogive predict`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import ItemBank
from .concept_graph import ConceptGraph, build_prior, check_precision_finite
from .dataio import Dataset
from .inference import DEFAULT_SOLVER, SolverConfig, batched_vector_map, count_rows
from .irt_core import (
    PROB_FLOOR,
    TemporalConfig,
    check_drift_finite,
    effective_discriminations,
    probit,
)

REPORT_FORMAT_VERSION = "1"

MAX_BUCKETS = 1000  # percent-correct buckets; each is a row of every report

MODEL_KINDS = ("spc", "static_2po", "temporal_2po", "factorial_mvn",
               "correlated_mvn", "tskirt")

# each kind's knobs and their standard values; a kind without nu2 has no
# drift and one without gamma no coupling, so both stay 0 there
_DEFAULT_HYPERS = {
    "spc": {},
    "static_2po": {"lam": 1.0},
    "temporal_2po": {"nu2": 10.0, "lam": 1.0},
    "factorial_mvn": {"lam": 1.0},
    "correlated_mvn": {"lam": 1.0, "gamma": 0.5},
    "tskirt": {"nu2": 0.1, "lam": 1.0, "gamma": 0.5},
}


@dataclass(frozen=True)
class ModelVariant:
    """One row of the model menu: a kind plus its hyperparameters."""

    kind: str
    nu2: float = 0.0
    lam: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {self.kind!r}; choose from {', '.join(MODEL_KINDS)}"
            )
        if not (math.isfinite(self.nu2) and self.nu2 >= 0.0):
            raise ValueError(f"nu2 must be finite and >= 0, got {self.nu2}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        for name, what in (("nu2", "drift"), ("gamma", "coupling")):
            if getattr(self, name) != 0.0 and name not in _DEFAULT_HYPERS[self.kind]:
                raise ValueError(
                    f"model {self.kind!r} has no {what}, so its {name} must be 0, "
                    f"got {getattr(self, name)}"
                )

    @classmethod
    def from_name(cls, kind: str,
                  nu2: Optional[float] = None,
                  lam: Optional[float] = None,
                  gamma: Optional[float] = None) -> "ModelVariant":
        """Variant with its standard hyperparameters, selectively overridden.

        Overrides apply only where the kind has that knob; spc takes none.
        """
        if kind not in _DEFAULT_HYPERS:
            raise ValueError(
                f"unknown model kind {kind!r}; choose from {', '.join(MODEL_KINDS)}"
            )
        hypers = dict(_DEFAULT_HYPERS[kind])
        for name, value in (("nu2", nu2), ("lam", lam), ("gamma", gamma)):
            if name in hypers and value is not None:
                hypers[name] = float(value)
        return cls(kind, **hypers) if hypers else cls(kind)

    @property
    def is_spc(self) -> bool:
        return self.kind == "spc"

    @property
    def is_vector(self) -> bool:
        return self.kind in ("factorial_mvn", "correlated_mvn", "tskirt")

    def hyperparameters(self) -> dict:
        keys = _DEFAULT_HYPERS[self.kind]
        return {k: getattr(self, k) for k in keys}


@dataclass(frozen=True)
class BucketMetrics:
    low: float
    high: float
    n_students: int
    n_predictions: int
    accuracy: Optional[float]
    auc: Optional[float]
    mean_log_likelihood: Optional[float]

    def to_dict(self) -> dict:
        return {
            "low": self.low, "high": self.high,
            "n_students": self.n_students, "n_predictions": self.n_predictions,
            "accuracy": self.accuracy, "auc": self.auc,
            "mean_log_likelihood": self.mean_log_likelihood,
        }


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    model: str
    hyperparameters: dict
    accuracy: float
    accuracy_sem: float
    auc: Optional[float]
    auc_note: Optional[str]
    mean_log_likelihood: float
    n_predictions: int
    n_skipped_events: int
    n_threshold_ties: int
    n_unconverged: int
    buckets: list
    # raw per-prediction arrays, prediction order; not serialized
    probabilities: np.ndarray = field(repr=False, default=None)
    outcomes: np.ndarray = field(repr=False, default=None)
    student_index: np.ndarray = field(repr=False, default=None)
    students: tuple = field(repr=False, default=())

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "hyperparameters": dict(self.hyperparameters),
            "metrics": {
                "accuracy": self.accuracy,
                "accuracy_sem": self.accuracy_sem,
                "auc": self.auc,
                "auc_note": self.auc_note,
                "mean_log_likelihood": self.mean_log_likelihood,
                "n_predictions": self.n_predictions,
                "n_skipped_events": self.n_skipped_events,
                "n_threshold_ties": self.n_threshold_ties,
                "n_unconverged_solves": self.n_unconverged,
            },
            "buckets": [b.to_dict() for b in self.buckets],
        }


def _auc_from_arrays(scores: np.ndarray, outcomes: np.ndarray) -> Optional[float]:
    """Probability a correct response outscores an incorrect one, ties half.

    Returns None when the outcomes are single-class (flagged by the caller).
    """
    pos = outcomes == 1
    n_pos = int(pos.sum())
    n_neg = len(outcomes) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # average rank on ties, which counts a tie as half: a run of c equal
    # scores ending at rank k shares rank k - (c - 1) / 2
    _, run, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _metrics(p: np.ndarray, y: np.ndarray, with_auc: bool):
    """(accuracy at threshold 0.5, AUC or None, mean clamped log-likelihood) of p against y."""
    accuracy = float(((p >= 0.5) == (y == 1)).mean())
    auc = _auc_from_arrays(p, y) if with_auc else None
    pc = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    mean_ll = float(np.where(y == 1, np.log(pc), np.log1p(-pc)).mean())
    return accuracy, auc, mean_ll


def _check_bins(n_bins: int) -> None:
    if not 1 <= n_bins <= MAX_BUCKETS:
        raise ValueError(f"n_bins must be between 1 and {MAX_BUCKETS}, got {n_bins}")


def bucket_by_student_percent_correct(
    probabilities: np.ndarray,
    outcomes: np.ndarray,
    student_index: np.ndarray,
    n_bins: int,
    with_auc: bool = True,
) -> list[BucketMetrics]:
    """Per-bucket metrics after assigning each student to an equal-width
    percent-correct bin (last bin closed on the right).

    Every bin is emitted, empty ones with None metrics, so the plot table has
    a fixed number of rows.
    """
    _check_bins(n_bins)
    buckets: list[BucketMetrics] = []
    if len(probabilities) == 0:
        return [
            BucketMetrics(i / n_bins, (i + 1) / n_bins, 0, 0, None, None, None)
            for i in range(n_bins)
        ]
    n_students = int(student_index.max()) + 1
    per_student_n = np.bincount(student_index, minlength=n_students)
    per_student_k = np.bincount(student_index, weights=outcomes, minlength=n_students)
    with np.errstate(invalid="ignore"):
        pc = np.where(per_student_n > 0, per_student_k / np.maximum(per_student_n, 1), 0.0)
    # the 1e-9 nudge keeps exact bin boundaries (pc = k/n) in the right bin
    student_bin = np.minimum((pc * n_bins + 1e-9).astype(int), n_bins - 1)
    pred_bin = student_bin[student_index]
    for i in range(n_bins):
        sel = pred_bin == i
        n_pred = int(sel.sum())
        n_stud = int(((student_bin == i) & (per_student_n > 0)).sum())
        metrics = (None, None, None)
        if n_pred:
            metrics = _metrics(probabilities[sel], outcomes[sel], with_auc)
        buckets.append(BucketMetrics(i / n_bins, (i + 1) / n_bins, n_stud, n_pred, *metrics))
    return buckets


def model_prior(model: ModelVariant, prior_graph: Optional[ConceptGraph], bank: ItemBank):
    """(precision, coordinate of each bank item, concept ids) a model runs with.

    Items are in `bank.arrays()` order.  Scalar models are the one-concept
    case: precision [[2*lam]], every item on coordinate 0 and no concept ids.
    Vector models build their prior from `prior_graph` with the model's lam
    and gamma; None stands for the bank's concepts without edges, which only
    an uncoupled model (gamma == 0) accepts.  Every bank item's concept must
    be a node of the graph.
    """
    ids, _, _, concepts = bank.arrays()
    if not model.is_vector:
        check_precision_finite(model.lam)
        return np.array([[2.0 * model.lam]]), np.zeros(len(ids), dtype=np.intp), None
    if prior_graph is None:
        if model.gamma != 0.0:
            raise ValueError(
                f"model {model.kind!r} couples concepts (gamma={model.gamma}) "
                "and needs a concept graph"
            )
        prior_graph = ConceptGraph(bank.concepts())
    elif not isinstance(prior_graph, ConceptGraph):
        raise TypeError(f"prior_graph must be a ConceptGraph or None, "
                        f"got {type(prior_graph).__name__}")
    precision = build_prior(prior_graph, model.lam, model.gamma).precision
    concept_to_idx = prior_graph.index
    for item_id, cid in zip(ids, concepts):
        if cid not in concept_to_idx:
            raise ValueError(
                f"item {item_id!r} is on concept {cid!r}, "
                "which is not a node of the concept graph"
            )
    item_concept = np.array([concept_to_idx[cid] for cid in concepts], dtype=np.intp)
    return precision, item_concept, prior_graph.concepts


def record_columns(records, bank: ItemBank):
    """(item position, correct, timestamp) columns of records, in record order.

    Positions are in `bank.arrays()` order; items missing from the bank get -1.
    """
    item_index = {item_id: j for j, item_id in enumerate(bank.items)}
    item = np.array([item_index.get(rec.item_id, -1) for rec in records], dtype=np.intp)
    correct = np.array([rec.correct for rec in records], dtype=float)
    stamp = np.array([rec.timestamp for rec in records], dtype=float)
    return item, correct, stamp


def run_online_evaluation(
    data: Dataset,
    bank: ItemBank,
    model: ModelVariant,
    prior_graph: Optional[ConceptGraph] = None,
    solver: SolverConfig = DEFAULT_SOLVER,
    n_buckets: int = 10,
    clock: str = "step",
    seconds_per_unit: float = 1.0,
) -> EvaluationReport:
    """Score every response of every student from strictly prior history.

    Events whose item is missing from the bank are dropped from the stream
    (they are neither predicted nor conditioned on) and tallied as skipped.
    Under the step clock the predicted event sits one step after the most
    recent history event; under the wall clock elapsed time comes from
    timestamps divided by seconds_per_unit.
    """
    _check_bins(n_buckets)
    temporal = TemporalConfig(model.nu2, clock, seconds_per_unit)
    _, alphas, betas, _ = bank.arrays()
    precision, item_concept, _ = model_prior(model, prior_graph, bank)

    # flat per-event columns, student insertion order then stream order
    student_ids = list(data.students)
    records = data.all_records()
    group = np.repeat(np.arange(len(student_ids)),
                      [len(recs) for recs in data.students.values()])
    item, correct, stamp = record_columns(records, bank)
    backwards = (np.diff(stamp) < 0) & (group[1:] == group[:-1])
    if backwards.any():
        sid = student_ids[group[np.argmax(backwards) + 1]]
        raise ValueError(f"student {sid!r}: events out of time order")

    # bank-unknown events drop out of the stream, then students left without events
    known = item >= 0
    n_skipped = len(records) - int(known.sum())
    kept, group = np.unique(group[known], return_inverse=True)
    students = [student_ids[g] for g in kept]
    n_students = len(students)
    if n_students == 0:
        raise ValueError("no evaluable events: every event was skipped or the data is empty")
    item, correct, stamp = item[known], correct[known], stamp[known]
    # rows run longest stream first, so each step's live students are a row prefix
    by_length = np.argsort(-np.bincount(group), kind="stable")
    rank = np.empty(n_students, dtype=np.intp)
    rank[by_length] = np.arange(n_students)
    group = rank[group]
    columns = [item, correct, stamp]
    static = not model.is_spc and model.nu2 == 0.0
    if static:
        slot, _, a_cell, b_cell, r_cell, c_cell = count_rows(
            group, n_students, 2 * item + (correct > 0), alphas[item], betas[item], correct,
            item_concept[item])
        columns.append(slot)
    # one cell per event: each record is its own key
    _, events, item_pad, correct_pad, stamp_pad, *slot_pad = count_rows(
        group, n_students, np.arange(len(group)), *columns)
    mask = events > 0
    lengths = mask.sum(axis=1)
    width = mask.shape[1]
    n_live = np.cumsum(np.bincount(lengths, minlength=width + 1)[::-1])[::-1]
    alpha_pad = alphas[item_pad]
    beta_pad = betas[item_pad]
    cidx_pad = item_concept[item_pad]
    # the step clock counts kept events, so column t - 1 sits at step t
    time_pad = temporal.event_time(np.broadcast_to(np.arange(1.0, width + 1), mask.shape),
                                   stamp_pad)
    if not model.is_spc:  # elapsed times peak between each stream's first and last event
        check_drift_finite(model.nu2, alpha_pad[mask].max(),
                           (time_pad[np.arange(n_students), lengths - 1] - time_pad[:, 0]).max())

    probs = np.zeros((n_students, width))
    n_unconverged = 0

    if model.is_spc:
        cum = np.cumsum(correct_pad, axis=1)
        prior_correct = cum - correct_pad
        denom = np.arange(width, dtype=float)[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            probs = np.where(denom > 0, prior_correct / np.maximum(denom, 1.0), 0.5)
    else:
        theta = np.zeros((n_students, len(precision)))
        live_rows = np.arange(n_students)

        def drift_solve(n, col):
            hist = slice(0, col)
            elapsed = time_pad[:n, col][:, None] - time_pad[:n, hist]
            a_eff = effective_discriminations(alpha_pad[:n, hist], elapsed, model.nu2)
            return batched_vector_map(
                theta[:n], a_eff, beta_pad[:n, hist], correct_pad[:n, hist],
                cidx_pad[:n, hist], events[:n, hist], precision, solver,
            )

        if static:
            # a static history is its distinct (item, outcome) cells with counts
            slot_pad = slot_pad[0]
            opened = np.maximum.accumulate(slot_pad, axis=1) + 1  # cells opened so far
            counts = np.zeros(a_cell.shape)

        def static_solve(n, col):
            counts[live_rows[:n], slot_pad[:n, col - 1]] += 1.0
            hist = slice(0, opened[:n, col - 1].max())
            return batched_vector_map(
                theta[:n], a_cell[:n, hist], b_cell[:n, hist], r_cell[:n, hist],
                c_cell[:n, hist], counts[:n, hist], precision, solver,
            )

        solve = static_solve if static else drift_solve
        for t in range(1, width + 1):
            n = n_live[t]
            col = t - 1
            if t >= 2:
                th, conv, _ = solve(n, col)
                theta[:n] = th
                n_unconverged += int((~conv).sum())
            th_ev = theta[live_rows[:n], cidx_pad[:n, col]]
            z = alpha_pad[:n, col] * (th_ev - beta_pad[:n, col])
            probs[:n, col] = probit(z)

    # back to student order
    probs, mask, correct_pad, lengths = probs[rank], mask[rank], correct_pad[rank], lengths[rank]
    # the raw arrays live as long as the report: outcomes as int8, students as int32
    p_all = probs[mask]
    y_all = correct_pad[mask].astype(np.int8)
    student_index = np.repeat(np.arange(n_students, dtype=np.int32), lengths)

    accuracy, auc, mean_ll = _metrics(p_all, y_all, with_auc=not model.is_spc)
    n = len(p_all)
    sem = float(np.sqrt(accuracy * (1.0 - accuracy) / n))
    if model.is_spc:
        auc_note = "baseline emits no ranking score"
    else:
        auc_note = "single-class outcomes" if auc is None else None
    buckets = bucket_by_student_percent_correct(
        p_all, y_all, student_index, n_buckets, with_auc=not model.is_spc
    )
    return EvaluationReport(
        model=model.kind,
        hyperparameters=model.hyperparameters(),
        accuracy=accuracy,
        accuracy_sem=sem,
        auc=auc,
        auc_note=auc_note,
        mean_log_likelihood=mean_ll,
        n_predictions=n,
        n_skipped_events=n_skipped,
        n_threshold_ties=int((p_all == 0.5).sum()),
        n_unconverged=n_unconverged,
        buckets=buckets,
        probabilities=p_all,
        outcomes=y_all,
        student_index=student_index,
        students=tuple(students),
    )


def write_report_json(report: EvaluationReport, path, run_config: Optional[dict] = None) -> None:
    payload = {"format_version": REPORT_FORMAT_VERSION}
    payload.update(report.to_dict())
    payload["run_config"] = run_config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_bucket_tsv(reports: list[EvaluationReport], path,
                     run_config: Optional[dict] = None) -> None:
    """Long-format plot table: one row per (model, bucket)."""

    def fmt(x):
        return "n/a" if x is None else format(x, ".10g")

    with open(path, "w", encoding="utf-8") as fh:
        if run_config is not None:
            fh.write("# run_config: " + json.dumps(run_config, sort_keys=True) + "\n")
        fh.write("# format_version: " + REPORT_FORMAT_VERSION + "\n")
        fh.write("model\tbucket_low\tbucket_high\tn_students\tn_predictions"
                 "\taccuracy\tauc\tmean_log_likelihood\n")
        for rep in reports:
            for b in rep.buckets:
                fh.write("\t".join([
                    rep.model, fmt(b.low), fmt(b.high), str(b.n_students),
                    str(b.n_predictions), fmt(b.accuracy), fmt(b.auc),
                    fmt(b.mean_log_likelihood),
                ]) + "\n")


def summary_table(reports: list[EvaluationReport]) -> str:
    """Fixed-width comparison table, one model per row."""
    header = (f"{'model':<16} {'accuracy':>10} {'sem':>9} {'auc':>8} "
              f"{'mean_ll':>9} {'n':>9} {'skipped':>8} {'unconv':>7}")
    lines = [header, "-" * len(header)]
    for r in reports:
        auc = "n/a" if r.auc is None else f"{r.auc:.4f}"
        lines.append(
            f"{r.model:<16} {r.accuracy:>10.4f} {r.accuracy_sem:>9.4f} {auc:>8} "
            f"{r.mean_log_likelihood:>9.4f} {r.n_predictions:>9d} "
            f"{r.n_skipped_events:>8d} {r.n_unconverged:>7d}"
        )
    return "\n".join(lines)
