"""Item parameter fitting on a training split with a static scalar model.

Alternating MAP: fix items and solve every student's proficiency, then fix
students and update every item's difficulty and discrimination, repeating
until the mean absolute parameter change is small.  With the other
parameters fixed, each block is a one-concept probit MAP problem under a
normal prior, so every half-step runs the batched Newton solver
`batched_vector_map`: students over student-major rows, items over
item-major rows, the item half-step as ITEM_SWEEPS sweeps of a difficulty
block then a discrimination block clipped at the floor.  All blocks maximize
the same penalized joint log-posterior, so the objective is nondecreasing
across half-steps; that is checked every round.

The latent scale is pinned by the fixed student prior N(0, 0.5), the same
prior the online models use, so calibrated banks feed inference without
rescaling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import DataError, Dataset
from .inference import batched_vector_map, padded_rows
from .irt_core import ItemParams, bernoulli_probit_terms


class CalibrationError(RuntimeError):
    """Internal invariant violated during fitting (not a user-input problem)."""


# (mean, variance) of the fixed normal priors in the joint objective
STUDENT_PRIOR_MEAN, STUDENT_PRIOR_VARIANCE = 0.0, 0.5
DIFFICULTY_PRIOR_MEAN, DIFFICULTY_PRIOR_VARIANCE = 0.0, 1.0
DISCRIMINATION_PRIOR_MEAN, DISCRIMINATION_PRIOR_VARIANCE = 1.0, 0.5


@dataclass(frozen=True)
class CalibrationConfig:
    """Stopping rule and discrimination floor of `calibrate`.

    Runs at most max_outer_rounds rounds and stops after the first whose
    mean absolute item-parameter change is below convergence_delta; no
    discrimination goes below discrimination_floor.
    """

    max_outer_rounds: int = 50
    convergence_delta: float = 1e-5
    discrimination_floor: float = 0.01

    def __post_init__(self):
        for name in ("convergence_delta", "discrimination_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
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


# alpha and beta are coupled: one or two sweeps a round end short of the joint item optimum
ITEM_SWEEPS = 3


def calibrate(
    training: Dataset,
    config: CalibrationConfig = CalibrationConfig(),
    concept_map: Optional[dict[str, str]] = None,
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

    # student-major rows for the student half-step, item-major for the item one
    mask, ev_item, ev_resp = padded_rows(s_idx, n_students, q_idx, resp)
    item_mask, item_student, item_resp = padded_rows(q_idx, n_items, s_idx, resp)
    # every problem is one-concept, so every event reads the only coordinate
    ev_concept = np.zeros(mask.shape, dtype=np.intp)
    item_concept = np.zeros(item_mask.shape, dtype=np.intp)

    lam_student = 1.0 / (2.0 * STUDENT_PRIOR_VARIANCE)
    student_precision = np.array([[2.0 * lam_student]])
    difficulty_precision = np.array([[1.0 / DIFFICULTY_PRIOR_VARIANCE]])
    discrimination_precision = np.array([[1.0 / DISCRIMINATION_PRIOR_VARIANCE]])
    floor = config.discrimination_floor
    alpha = np.full(n_items, max(DISCRIMINATION_PRIOR_MEAN, floor))
    beta = np.full(n_items, DIFFICULTY_PRIOR_MEAN)
    theta = np.zeros(n_students)

    def joint_objective(th, a, b) -> float:
        z = a[q_idx] * (th[s_idx] - b[q_idx])
        ll, _, _ = bernoulli_probit_terms(z, resp)
        value = float(ll.sum())
        value -= lam_student * float(((th - STUDENT_PRIOR_MEAN) ** 2).sum())
        value -= float(((b - DIFFICULTY_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * DIFFICULTY_PRIOR_VARIANCE
        )
        value -= float(((a - DISCRIMINATION_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * DISCRIMINATION_PRIOR_VARIANCE
        )
        return value

    rounds_run = 0
    final_delta: Optional[float] = None
    objective = joint_objective(theta, alpha, beta)
    for _ in range(config.max_outer_rounds):
        rounds_run += 1

        a_eff = np.where(mask, alpha[ev_item], 0.0)
        b_pad = beta[ev_item]
        theta = batched_vector_map(
            theta[:, None], a_eff, b_pad, ev_resp, ev_concept, mask, student_precision,
            prior_mean=STUDENT_PRIOR_MEAN,
        )[0][:, 0]
        after_students = joint_objective(theta, alpha, beta)
        slack = 1e-9 * max(1.0, abs(objective))
        if after_students < objective - slack:
            raise CalibrationError(
                f"objective decreased in the student half-step: "
                f"{objective} -> {after_students}"
            )

        # with students fixed, z = (-alpha)(beta - theta) is a one-concept
        # probit in beta and z = (theta - beta) alpha one in alpha; each block
        # is strictly concave in one variable, so clipping alpha's maximizer
        # at the floor gives the constrained maximizer
        th_items = theta[item_student]
        new_alpha, new_beta = alpha, beta
        for _ in range(ITEM_SWEEPS):
            new_beta = batched_vector_map(
                new_beta[:, None], np.where(item_mask, -new_alpha[:, None], 0.0), th_items,
                item_resp, item_concept, item_mask, difficulty_precision,
                prior_mean=DIFFICULTY_PRIOR_MEAN,
            )[0][:, 0]
            new_alpha = np.maximum(batched_vector_map(
                new_alpha[:, None], np.where(item_mask, th_items - new_beta[:, None], 0.0),
                np.zeros(item_mask.shape), item_resp, item_concept, item_mask,
                discrimination_precision, prior_mean=DISCRIMINATION_PRIOR_MEAN,
            )[0][:, 0], floor)
        after_items = joint_objective(theta, new_alpha, new_beta)
        slack = 1e-9 * max(1.0, abs(after_students))
        if after_items < after_students - slack:
            raise CalibrationError(
                f"objective decreased in the item half-step: "
                f"{after_students} -> {after_items}"
            )

        final_delta = float(
            np.mean(np.concatenate([np.abs(new_alpha - alpha), np.abs(new_beta - beta)]))
        )
        alpha, beta, objective = new_alpha, new_beta, after_items
        if final_delta < config.convergence_delta:
            break

    floored = tuple(
        item_ids[j] for j in range(n_items) if alpha[j] <= floor * (1.0 + 1e-9)
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
