"""MAP estimation of current proficiency from a response history.

Every model kind is one model: a per-concept probit with a Gaussian prior of
precision P and mean m.  Scalar models are its one-concept case, P = [[2*lam]].
`batched_vector_map` is the one solver: damped Newton with an Armijo
backtracking line search, run in lockstep over S independent problems.  The
objective is strictly concave whenever P is positive definite, so each
maximizer is unique.  Every array operation is elementwise per row, so each
student's iterates are bit-identical no matter which other students share the
batch.  The single-history API (`map_estimate_scalar`, `map_estimate_vector`)
is the same solver at S = 1 and returns exactly its row.  Every padded
layout the solver reads, in the harness and in calibration, comes from
`padded_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concept_graph import StructuredPrior
from .irt_core import (
    ItemParams,
    ResponseEvent,
    ScalarPriorConfig,
    TemporalConfig,
    _concept_indices,
    _history_arrays,
    bernoulli_probit_terms,
    effective_discriminations,
    response_probability,
)

ARMIJO_C1 = 1e-4
# near the optimum the predicted Armijo gain drops below float resolution of
# the objective value, so a strict test stalls one Newton step short of the
# gradient tolerance; accept steps within this relative slack instead
ARMIJO_SLACK = 1e-12
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver settings; defaults validated by the initialization-independence property.

    The single-history API starts every solve at the prior mean; the harness
    warm-starts through `batched_vector_map`'s theta0.
    """

    gradient_tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0.0):
            raise ValueError(
                f"gradient_tolerance must be finite and > 0, got {self.gradient_tolerance}"
            )
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True, eq=False)
class ProficiencyEstimate:
    """MAP point estimate with optimization diagnostics.

    theta always has vector shape, length 1 for scalar models; concept_ids
    names the coordinates for vector models and is None for scalar ones.
    """

    theta: np.ndarray
    converged: bool
    iterations: int
    concept_ids: Optional[tuple[str, ...]] = None

    def coordinate(self, concept_id: str) -> float:
        if self.concept_ids is None:
            return float(self.theta[0])
        try:
            return float(self.theta[self.concept_ids.index(concept_id)])
        except ValueError:
            raise KeyError(
                f"concept {concept_id!r} is not a coordinate of this estimate"
            ) from None


def _single_history_estimate(
    history: Sequence[ResponseEvent],
    now: float,
    temporal: TemporalConfig,
    precision: np.ndarray,
    prior_mean: float,
    concept_idx: np.ndarray,
    solver: SolverConfig,
    concept_ids: Optional[tuple[str, ...]],
) -> ProficiencyEstimate:
    """One history solved as a batch of one from the prior mean; empty history returns it."""
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    theta0 = np.full(len(precision), float(prior_mean))
    if len(history) == 0:
        return ProficiencyEstimate(theta0, True, 0, concept_ids)
    alphas, betas, correct, elapsed = _history_arrays(history, now, temporal)
    a_eff = effective_discriminations(alphas, elapsed, temporal.drift_variance)
    theta, converged, iterations = batched_vector_map(
        theta0[None], a_eff[None], betas[None], correct[None], concept_idx[None],
        np.ones((1, len(history)), dtype=bool), precision,
        solver.gradient_tolerance, solver.max_iterations, prior_mean,
    )
    return ProficiencyEstimate(theta[0], bool(converged[0]), int(iterations[0]), concept_ids)


def map_estimate_scalar(
    history: Sequence[ResponseEvent],
    now: float,
    temporal: TemporalConfig,
    prior: ScalarPriorConfig,
    solver: SolverConfig = DEFAULT_SOLVER,
) -> ProficiencyEstimate:
    """MAP estimate of a single proficiency; empty history returns the prior mean.

    Solved as the one-concept vector problem with precision [[2*lam]],
    started at the prior mean.
    """
    return _single_history_estimate(
        history, now, temporal, np.array([[2.0 * prior.precision_weight]]), prior.mean,
        np.zeros(len(history), dtype=np.intp), solver, None,
    )


def map_estimate_vector(
    history: Sequence[ResponseEvent],
    now: float,
    temporal: TemporalConfig,
    prior: StructuredPrior,
    solver: SolverConfig = DEFAULT_SOLVER,
) -> ProficiencyEstimate:
    """MAP estimate of the concept-proficiency vector; empty history returns zero."""
    return _single_history_estimate(
        history, now, temporal, prior.precision, 0.0,
        _concept_indices(history, prior.graph.index), solver, prior.graph.concepts,
    )


def predict_next(estimate: ProficiencyEstimate, item: ItemParams) -> float:
    """Probability the student answers `item` correctly right now."""
    if estimate.concept_ids is None:
        theta = float(estimate.theta[0])
    else:
        theta = estimate.coordinate(item.concept_id)
    return response_probability(theta, item)


# -- the batched lockstep solver ----------------------------------------------
#
# Array contract: event arrays have shape (S, T) with a boolean mask of valid
# cells; padded cells must carry a_eff == 0 so padding contributes zero
# gradient and curvature, and the mask zeroes padded log-likelihood terms.
# `padded_rows` builds every such layout from flat per-event columns.


def padded_rows(group: np.ndarray, n_groups: int, *columns: np.ndarray):
    """Rows of `columns` grouped by `group` in record order: (mask, *padded columns).

    Row g holds the records of group g left-aligned, padded cells are 0, and
    every group gets a row, all masked when it holds no records.
    """
    lengths = np.bincount(group, minlength=n_groups)
    order = np.argsort(group, kind="stable")
    rows = group[order]
    cols = np.arange(len(group)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    mask = np.zeros((n_groups, int(lengths.max())), dtype=bool)
    mask[rows, cols] = True
    padded = []
    for column in columns:
        out = np.zeros(mask.shape, dtype=column.dtype)
        out[rows, cols] = column[order]
        padded.append(out)
    return (mask, *padded)


class StackedLogPosterior:
    """Log-posteriors of S independent problems that share one Gaussian prior.

    Row s is -0.5 (theta_s - m)' P (theta_s - m) plus the Bernoulli-probit
    terms of its valid events, event j reading coordinate concept_idx[s, j].
    Called at an (S, C) theta it returns the (S,) values, the (S, C)
    gradients and the (S, C) diagonal of the data curvature; the Hessian of
    row s is diag(curvature_s) - P.  Index arrays are built once here, not
    per call.  With one concept every event reads the only coordinate, so the
    gather is a broadcast and the scatter a row sum, and concept_idx is not
    read.
    """

    def __init__(self, a_eff, beta, correct, concept_idx, mask, precision,
                 prior_mean: float = 0.0):
        self.a_eff, self.beta, self.correct = a_eff, beta, correct
        self.mask = None if mask.all() else mask  # the harness passes full rows
        self.a_sq = a_eff * a_eff
        self.precision = precision
        self.prior_mean = prior_mean
        n_students, n_concepts = a_eff.shape[0], precision.shape[0]
        self.one_concept = n_concepts == 1
        if not self.one_concept:
            self.concept_idx = concept_idx
            self.flat_idx = (np.arange(n_students)[:, None] * n_concepts + concept_idx).ravel()
            self.shape = (n_students, n_concepts)

    def __call__(self, theta: np.ndarray):
        dev = theta - self.prior_mean
        if self.one_concept:
            ll, d1, d2 = bernoulli_probit_terms(self.a_eff * (theta - self.beta), self.correct)
            p = self.precision[0, 0]
            value = -(0.5 * p) * dev[:, 0] ** 2
            grad = -(dev * p) + (self.a_eff * d1).sum(axis=1, keepdims=True)
            curv = (self.a_sq * d2).sum(axis=1, keepdims=True)
        else:
            th_events = np.take_along_axis(theta, self.concept_idx, axis=1)
            ll, d1, d2 = bernoulli_probit_terms(self.a_eff * (th_events - self.beta),
                                                self.correct)
            p_dev = dev @ self.precision
            value = -0.5 * np.einsum("sc,sc->s", dev, p_dev)
            size = self.shape[0] * self.shape[1]
            grad = -p_dev + np.bincount(
                self.flat_idx, weights=(self.a_eff * d1).ravel(), minlength=size
            ).reshape(self.shape)
            curv = np.bincount(
                self.flat_idx, weights=(self.a_sq * d2).ravel(), minlength=size
            ).reshape(self.shape)
        if self.mask is not None:
            ll = np.where(self.mask, ll, 0.0)
        value += ll.sum(axis=1)
        return value, grad, curv


def batched_vector_map(
    theta0: np.ndarray,
    a_eff: np.ndarray,
    beta: np.ndarray,
    correct: np.ndarray,
    concept_idx: np.ndarray,
    mask: np.ndarray,
    precision: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    prior_mean: float = 0.0,
):
    """Solve S independent MAP problems sharing one prior precision and mean.

    theta0 is (S, C); event arrays are (S, T); concept_idx holds the coordinate
    each event reads (0 on padded cells, all 0 when C == 1).  A diagonal
    precision takes the elementwise Newton step, a coupled one a batched
    linear solve.  Convergence is declared per row when the max-abs gradient
    entry drops to tol.  Returns (theta, converged, iterations) with shapes
    (S, C), (S,) bool and (S,) int.
    """
    objective = StackedLogPosterior(a_eff, beta, correct, concept_idx, mask,
                                    precision, prior_mean)
    theta = np.array(theta0, dtype=float, copy=True)
    n_students, n_concepts = theta.shape
    p_diag = np.diagonal(precision)
    # a positive definite precision has a nonzero diagonal, so this counts
    # whether any off-diagonal entry is nonzero
    diagonal = np.count_nonzero(precision) == n_concepts
    diag = np.arange(n_concepts)

    value, grad, curv = objective(theta)
    iterations = np.zeros(n_students, dtype=np.int64)
    stalled = np.zeros(n_students, dtype=bool)
    for _ in range(max_iter):
        active = (np.abs(grad).max(axis=1) > tol) & ~stalled
        if not active.any():
            break
        iterations += active
        # -H = P - diag(curv); curvature terms are <= 0 so -H is positive definite
        if diagonal:
            direction = grad / (p_diag - curv)
        else:
            neg_hess = np.broadcast_to(precision, (n_students, n_concepts, n_concepts)).copy()
            neg_hess[:, diag, diag] -= curv
            direction = np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]
        direction[~active] = 0.0
        slope = np.einsum("sc,sc->s", grad, direction)
        slack = ARMIJO_SLACK * (1.0 + np.abs(value))
        step = np.ones(n_students)
        need = active.copy()
        for _ in range(MAX_BACKTRACKS):
            if not need.any():
                break
            # rows that no longer need a step are evaluated but never taken
            cand = theta + step[:, None] * direction
            v2, g2, c2 = objective(cand)
            ok = need & np.isfinite(v2) & (v2 >= value + ARMIJO_C1 * step * slope - slack)
            take = ok[:, None]
            np.copyto(theta, cand, where=take)
            np.copyto(grad, g2, where=take)
            np.copyto(curv, c2, where=take)
            value = np.where(ok, v2, value)
            need &= ~ok
            step = np.where(need, 0.5 * step, step)
        stalled |= need
    converged = np.abs(grad).max(axis=1) <= tol
    return theta, converged, iterations
