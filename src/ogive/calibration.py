"""Item parameter fitting on a training split with a static scalar model.

Alternating MAP: fix items and solve every student's proficiency, then fix
students and update every item's difficulty and discrimination, repeating
until the mean absolute parameter change is small.  With the other
parameters fixed, each block is a one-concept probit MAP problem under a
normal prior, so every half-step runs the batched Newton solver
`newton_map`: students over student-major rows, items over item-major rows,
the item half-step as ITEM_SWEEPS sweeps of a difficulty block then a
discrimination block clipped at the floor.  Both layouts come from
`count_rows`: a student's responses to one item with one outcome share a
cell, weighted by their count, and each cell has one twin in the other
layout.  All blocks maximize the same penalized joint log-posterior, so the
objective is nondecreasing across half-steps; that is checked every round.
All blocks also evaluate the kernel at the same arguments on the same
cells, so each block starts from the per-cell terms the previous one ended
with, and the joint objective is the count-weighted sum of their
log-likelihoods: no kernel pass is repeated.

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
from .inference import StackedLogPosterior, count_rows, newton_map
from .irt_core import ItemParams


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
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    floor = config.discrimination_floor
    # every sum of squared discriminations over the records is at most this
    if not math.isfinite(len(records) * floor * floor):
        raise ValueError(
            f"discrimination_floor={floor} is too large: records * floor^2 overflows "
            f"({len(records)} records)"
        )
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
    responses = {item_ids[j]: int(c) for j, c in enumerate(np.bincount(q_idx, minlength=n_items))}

    # student-major rows for the student half-step, item-major for the item
    # one; a student's records of one item with one outcome share a cell,
    # counted, in both layouts
    outcome = resp > 0
    student_slot, counts, ev_item, ev_resp = count_rows(
        s_idx, n_students, 2 * q_idx + outcome, q_idx, resp)
    item_slot, item_counts, item_student, item_resp = count_rows(
        q_idx, n_items, 2 * s_idx + outcome, s_idx, resp)
    # the flat cell each cell of one layout reads in the other: its twin, the
    # cell of the same (student, item, outcome), or cell 0 for a padded cell
    student_cell = s_idx * counts.shape[1] + student_slot
    item_cell = q_idx * item_counts.shape[1] + item_slot
    from_students = np.zeros(item_counts.shape, dtype=np.intp)
    np.put(from_students, item_cell, student_cell)
    from_items = np.zeros(counts.shape, dtype=np.intp)
    np.put(from_items, student_cell, item_cell)
    # only the layouts are read from here on
    del records, s_idx, q_idx, resp, outcome, student_slot, item_slot, student_cell, item_cell
    item_zero = np.zeros(item_counts.shape)

    lam_student = 1.0 / (2.0 * STUDENT_PRIOR_VARIANCE)
    student_precision = np.array([[2.0 * lam_student]])
    difficulty_precision = np.array([[1.0 / DIFFICULTY_PRIOR_VARIANCE]])
    discrimination_precision = np.array([[1.0 / DISCRIMINATION_PRIOR_VARIANCE]])
    alpha = np.full(n_items, max(DISCRIMINATION_PRIOR_MEAN, floor))
    beta = np.full(n_items, DIFFICULTY_PRIOR_MEAN)
    theta = np.zeros(n_students)

    def joint_objective(ll, th, a, b) -> float:
        """The joint log-posterior from the student layout's ll, weighted by the counts."""
        value = float((ll * counts).sum())
        value -= lam_student * float(((th - STUDENT_PRIOR_MEAN) ** 2).sum())
        value -= float(((b - DIFFICULTY_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * DIFFICULTY_PRIOR_VARIANCE
        )
        value -= float(((a - DISCRIMINATION_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * DISCRIMINATION_PRIOR_VARIANCE
        )
        return value

    def relayout(terms, cells):
        """Move the list of per-cell terms to the other layout in place.

        `cells` names each cell's source cell; one array at a time, so the
        old layout's arrays are freed as the new ones are made.
        """
        for k, t in enumerate(terms):
            terms[k] = np.take(t, cells)

    def student_rows(a, b):
        return StackedLogPosterior(a[ev_item], b[ev_item], ev_resp, None, counts,
                                   student_precision, STUDENT_PRIOR_MEAN)

    def discrimination_rows(th, b, rows=slice(None)):
        return StackedLogPosterior(th[rows] - b[rows, None], item_zero[rows], item_resp[rows],
                                   None, item_counts[rows], discrimination_precision,
                                   DISCRIMINATION_PRIOR_MEAN)

    # Every block evaluates the kernel at z = +-alpha*(theta - beta) on the same
    # (student, item) cells: the student block forms it as (theta - beta)(+-alpha),
    # the difficulty block as (beta - theta)(-+alpha), the discrimination block
    # as alpha(+-(theta - beta)).  Negation, subtraction and multiplication are
    # exact under those rearrangements, so each block starts from the per-cell
    # terms the previous one ended with, and the joint objective is their sum.
    terms = list(student_rows(alpha, beta).terms(theta[:, None]))
    objective = joint_objective(terms[0], theta, alpha, beta)
    rounds_run = 0
    final_delta: Optional[float] = None
    for _ in range(config.max_outer_rounds):
        rounds_run += 1

        theta = newton_map(student_rows(alpha, beta), theta[:, None], terms)[0][:, 0]
        after_students = joint_objective(terms[0], theta, alpha, beta)
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
        relayout(terms, from_students)
        th_items = theta[item_student]
        new_alpha, new_beta = alpha, beta
        for _ in range(ITEM_SWEEPS):
            new_beta = newton_map(StackedLogPosterior(
                -new_alpha[:, None], th_items, item_resp, None, item_counts,
                difficulty_precision, DIFFICULTY_PRIOR_MEAN,
            ), new_beta[:, None], terms)[0][:, 0]
            solved = newton_map(discrimination_rows(th_items, new_beta),
                                new_alpha[:, None], terms)[0][:, 0]
            new_alpha = np.maximum(solved, floor)
            clipped = np.flatnonzero(new_alpha != solved)
            if len(clipped):  # the solve's terms are at the unclipped alpha
                fresh = discrimination_rows(th_items, new_beta, clipped).terms(
                    new_alpha[clipped, None])
                for t, f in zip(terms, fresh):
                    t[clipped] = f
        relayout(terms, from_items)
        after_items = joint_objective(terms[0], theta, new_alpha, new_beta)
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
        response_counts=responses,
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
