"""Item parameter fitting on a training split with a static scalar model.

Alternating MAP: fix items and solve every student's proficiency (Newton in
lockstep), then fix students and solve each item's (discrimination,
difficulty) under its normal priors (L-BFGS-B over log-discrimination to keep
it positive), repeating until the mean absolute parameter change is small.
Both half-steps maximize the same penalized joint log-posterior, so the
objective is nondecreasing across half-steps; that is checked every round.

The latent scale is pinned by the fixed student prior N(0, 0.5), the same
prior the online models use, so calibrated banks feed inference without
rescaling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .dataio import DataError, Dataset
from .inference import batched_vector_map
from .irt_core import ItemParams, bernoulli_probit_terms


class CalibrationError(RuntimeError):
    """Internal invariant violated during fitting (not a user-input problem)."""


@dataclass(frozen=True)
class CalibrationConfig:
    difficulty_prior_mean: float = 0.0
    difficulty_prior_variance: float = 1.0
    discrimination_prior_mean: float = 1.0
    discrimination_prior_variance: float = 0.5
    student_prior_mean: float = 0.0
    student_prior_variance: float = 0.5
    max_outer_rounds: int = 50
    convergence_delta: float = 1e-5
    discrimination_floor: float = 0.01

    def __post_init__(self):
        for name in ("difficulty_prior_variance", "discrimination_prior_variance",
                     "student_prior_variance"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.convergence_delta <= 0.0:
            raise ValueError("convergence_delta must be > 0")
        if self.discrimination_floor <= 0.0:
            raise ValueError("discrimination_floor must be > 0")
        if self.max_outer_rounds < 0:
            raise ValueError("max_outer_rounds must be >= 0")


@dataclass(frozen=True)
class CalibrationMeta:
    rounds: int
    final_delta: Optional[float]
    response_counts: dict[str, int]
    floored_items: tuple[str, ...]
    objective: Optional[float]

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "final_delta": self.final_delta,
            "response_counts": dict(self.response_counts),
            "floored_items": list(self.floored_items),
            "objective": self.objective,
        }


BANK_HEADER = ("item_id", "concept_id", "discrimination", "difficulty")


class ItemBank:
    """Fixed item parameters, keyed by item id, in a stable order."""

    def __init__(self, items: dict[str, ItemParams], meta: Optional[CalibrationMeta] = None):
        self.items = dict(items)
        self.meta = meta

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.items

    def __getitem__(self, item_id: str) -> ItemParams:
        return self.items[item_id]

    def concepts(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for p in self.items.values():
            seen.setdefault(p.concept_id)
        return tuple(seen)

    def arrays(self):
        """(item_ids, discriminations, difficulties, concept_ids), aligned."""
        ids = list(self.items)
        alphas = np.array([self.items[i].discrimination for i in ids])
        betas = np.array([self.items[i].difficulty for i in ids])
        concepts = [self.items[i].concept_id for i in ids]
        return ids, alphas, betas, concepts

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(BANK_HEADER)
            for p in self.items.values():
                writer.writerow(
                    [p.item_id, p.concept_id,
                     format(p.discrimination, ".17g"), format(p.difficulty, ".17g")]
                )

    @classmethod
    def load_csv(cls, path) -> "ItemBank":
        items: dict[str, ItemParams] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != list(BANK_HEADER):
                raise DataError(
                    f"{path}: expected header {','.join(BANK_HEADER)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    raise DataError(f"{path}: line {lineno}: expected 4 fields")
                item_id, concept_id, alpha, beta = row
                if item_id in items:
                    raise DataError(f"{path}: line {lineno}: duplicate item {item_id!r}")
                try:
                    items[item_id] = ItemParams(item_id, float(alpha), float(beta), concept_id)
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
        return cls(items)


def _item_negative_objective(x, theta, correct, cfg: CalibrationConfig):
    """Negated per-item log-posterior over (log discrimination, difficulty), with gradient."""
    log_alpha, beta = x
    alpha = np.exp(log_alpha)
    z = alpha * (theta - beta)
    ll, d1, _ = bernoulli_probit_terms(z, correct)
    am, av = cfg.discrimination_prior_mean, cfg.discrimination_prior_variance
    bm, bv = cfg.difficulty_prior_mean, cfg.difficulty_prior_variance
    value = ll.sum() - (beta - bm) ** 2 / (2.0 * bv) - (alpha - am) ** 2 / (2.0 * av)
    d_alpha = float((d1 * (theta - beta)).sum()) - (alpha - am) / av
    d_beta = -alpha * float(d1.sum()) - (beta - bm) / bv
    return -value, np.array([-alpha * d_alpha, -d_beta])


def calibrate(
    training: Dataset,
    config: CalibrationConfig = CalibrationConfig(),
    concept_map: Optional[dict[str, str]] = None,
    initial_theta: Optional[np.ndarray] = None,
) -> ItemBank:
    """Fit an ItemBank from a training Dataset.

    concept_map assigns item_id -> concept_id in the output bank (calibration
    itself is concept-blind); unmapped items get concept "all".
    """
    records = training.all_records()
    if not records:
        raise DataError("empty training set")
    students = list(training.students)
    s_index = {s: i for i, s in enumerate(students)}
    item_ids: list[str] = []
    q_index: dict[str, int] = {}
    for rec in records:
        if rec.item_id not in q_index:
            q_index[rec.item_id] = len(item_ids)
            item_ids.append(rec.item_id)
    n_students, n_items = len(students), len(item_ids)
    s_idx = np.array([s_index[r.student_id] for r in records])
    q_idx = np.array([q_index[r.item_id] for r in records])
    resp = np.array([r.correct for r in records], dtype=float)
    counts = {item_ids[j]: int(c) for j, c in enumerate(np.bincount(q_idx, minlength=n_items))}

    # padded (student, attempt) layout for the lockstep student half-step
    lengths = np.bincount(s_idx, minlength=n_students)
    width = int(lengths.max())
    order = np.argsort(s_idx, kind="stable")
    cols = np.concatenate([np.arange(n) for n in lengths]) if len(records) else np.array([], int)
    ev_item = np.zeros((n_students, width), dtype=int)
    ev_resp = np.zeros((n_students, width))
    mask = np.zeros((n_students, width), dtype=bool)
    ev_item[s_idx[order], cols] = q_idx[order]
    ev_resp[s_idx[order], cols] = resp[order]
    mask[s_idx[order], cols] = True

    lam_student = 1.0 / (2.0 * config.student_prior_variance)
    mu_student = config.student_prior_mean
    # students are one-concept problems: every event reads the only coordinate
    student_precision = np.array([[2.0 * lam_student]])
    ev_concept = np.zeros((n_students, width), dtype=np.intp)
    log_alpha = np.full(n_items, np.log(config.discrimination_prior_mean))
    beta = np.full(n_items, config.difficulty_prior_mean)
    theta = (np.zeros(n_students) if initial_theta is None
             else np.asarray(initial_theta, dtype=float).copy())
    if theta.shape != (n_students,):
        raise DataError(f"initial_theta must have shape ({n_students},)")

    def joint_objective(th, la, b) -> float:
        alpha = np.exp(la)
        z = alpha[q_idx] * (th[s_idx] - b[q_idx])
        ll, _, _ = bernoulli_probit_terms(z, resp)
        value = float(ll.sum())
        value -= lam_student * float(((th - mu_student) ** 2).sum())
        value -= float(((b - config.difficulty_prior_mean) ** 2).sum()) / (
            2.0 * config.difficulty_prior_variance
        )
        value -= float(((alpha - config.discrimination_prior_mean) ** 2).sum()) / (
            2.0 * config.discrimination_prior_variance
        )
        return value

    log_floor = np.log(config.discrimination_floor)
    rounds_run = 0
    final_delta: Optional[float] = None
    objective = joint_objective(theta, log_alpha, beta)
    for _ in range(config.max_outer_rounds):
        rounds_run += 1

        alpha = np.exp(log_alpha)
        a_eff = np.where(mask, alpha[ev_item], 0.0)
        b_pad = beta[ev_item]
        theta = batched_vector_map(
            theta[:, None], a_eff, b_pad, ev_resp, ev_concept, mask, student_precision,
            prior_mean=mu_student,
        )[0][:, 0]
        after_students = joint_objective(theta, log_alpha, beta)
        slack = 1e-9 * max(1.0, abs(objective))
        if after_students < objective - slack:
            raise CalibrationError(
                f"objective decreased in the student half-step: "
                f"{objective} -> {after_students}"
            )

        new_log_alpha = log_alpha.copy()
        new_beta = beta.copy()
        for j in range(n_items):
            rows = q_idx == j
            th_j, r_j = theta[s_idx[rows]], resp[rows]
            x0 = np.array([log_alpha[j], beta[j]])
            f0, _ = _item_negative_objective(x0, th_j, r_j, config)
            result = minimize(
                _item_negative_objective,
                x0,
                args=(th_j, r_j, config),
                jac=True,
                method="L-BFGS-B",
                bounds=[(log_floor, None), (None, None)],
            )
            if result.fun <= f0 and np.all(np.isfinite(result.x)):
                new_log_alpha[j], new_beta[j] = result.x
        after_items = joint_objective(theta, new_log_alpha, new_beta)
        slack = 1e-9 * max(1.0, abs(after_students))
        if after_items < after_students - slack:
            raise CalibrationError(
                f"objective decreased in the item half-step: "
                f"{after_students} -> {after_items}"
            )

        final_delta = float(
            np.mean(
                np.concatenate(
                    [np.abs(np.exp(new_log_alpha) - np.exp(log_alpha)),
                     np.abs(new_beta - beta)]
                )
            )
        )
        log_alpha, beta, objective = new_log_alpha, new_beta, after_items
        if final_delta < config.convergence_delta:
            break

    alpha = np.maximum(np.exp(log_alpha), config.discrimination_floor)
    floored = tuple(
        item_ids[j] for j in range(n_items)
        if alpha[j] <= config.discrimination_floor * (1.0 + 1e-9)
    )
    concept_map = concept_map or {}
    items = {
        item_ids[j]: ItemParams(
            item_ids[j], float(alpha[j]), float(beta[j]),
            concept_map.get(item_ids[j], "all"),
        )
        for j in range(n_items)
    }
    meta = CalibrationMeta(
        rounds=rounds_run,
        final_delta=final_delta,
        response_counts=counts,
        floored_items=floored,
        objective=float(objective) if rounds_run else None,
    )
    return ItemBank(items, meta)


def recovery_correlations(fitted: ItemBank, truth: ItemBank) -> dict[str, float]:
    """Pearson correlations of fitted vs true parameters over shared items."""
    shared = [i for i in fitted.items if i in truth.items]
    if len(shared) < 2:
        raise DataError("need at least 2 shared items to correlate")
    fa = np.array([fitted[i].discrimination for i in shared])
    ta = np.array([truth[i].discrimination for i in shared])
    fb = np.array([fitted[i].difficulty for i in shared])
    tb = np.array([truth[i].difficulty for i in shared])
    return {
        "discrimination": float(np.corrcoef(fa, ta)[0, 1]),
        "difficulty": float(np.corrcoef(fb, tb)[0, 1]),
        "n_shared_items": len(shared),
    }
