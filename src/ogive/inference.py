"""MAP estimation of current proficiency from a response history.

Every model kind is one model: a per-concept probit with a Gaussian prior of
precision P and mean m.  Scalar models are its one-concept case, P = [[2*lam]].
`newton_map` is the one solver: damped Newton with an Armijo backtracking
line search, run in lockstep over the S independent problems of a
`StackedLogPosterior`; `batched_vector_map` is its cold start from counted
cells, and every harness step, static or drifting, is one such call on its
live rows.  The solver takes and returns the kernel's per-cell terms, so a
caller that already holds them at the starting point (calibration's blocks)
skips that kernel pass.  The objective owns P: it forms P (theta - m) and
each Newton system (`direction`), and the solver only steps, searches and
retires rows.  The objective is strictly concave whenever P is positive
definite, so each maximizer is unique.  A row retires from the lockstep
solve as soon as it converges or its line search stalls, and every later
kernel call, step and linear solve runs on the live rows only.  Every array
operation is elementwise per row, so each student's iterates, iteration
count and convergence flag are bit-identical no matter which other students
share the batch, when they retire, or whether the row is solved alone.
`estimate_history` is the one single-history core: it takes one history as
the event columns the harness builds (discrimination, difficulty, outcome,
clock time, coordinate) and is the same solver at S = 1, returning exactly
its row.  `map_estimate_vector` only turns a list of `ResponseEvent`s into
those columns.  Every padded layout the solver reads, in the harness and in
calibration, comes from `count_rows`, which puts the records of a group that
share a key in one cell and counts them: a cell counted k times weights its
log-likelihood, gradient and curvature by k, and a zero count is padding.  A
key unique per record gives each record its own cell, counted once.  Counts
are the one weighting mode: every solve passes them.  Drift re-weights every
past event at each step, so a drifting history is one cell per event with
counts of one; without drift an event's terms never change with time, so the
harness holds a static history as its distinct (item, outcome) cells and
solves each step on their counts.
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
    TemporalConfig,
    bernoulli_probit_terms,
    check_drift_finite,
    effective_discriminations,
    probit,
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

    `estimate_history` starts every solve at the prior mean; the harness
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


def estimate_history(
    alphas: np.ndarray,
    betas: np.ndarray,
    correct: np.ndarray,
    times: np.ndarray,
    now: float,
    nu2: float,
    precision: np.ndarray,
    concept_idx: np.ndarray,
    solver: SolverConfig = DEFAULT_SOLVER,
    concept_ids: Optional[tuple[str, ...]] = None,
) -> ProficiencyEstimate:
    """MAP estimate at clock time `now` from one history held as event columns.

    Event j answered an item of discrimination alphas[j] and difficulty
    betas[j] at clock time times[j], reading coordinate concept_idx[j] of a
    proficiency with prior precision `precision` and mean zero.  Solved as a
    batch of one from the prior mean; an empty history returns it.
    """
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    theta0 = np.zeros((1, len(precision)))
    if len(alphas) == 0:
        return ProficiencyEstimate(theta0[0], True, 0, concept_ids)
    elapsed = now - times
    if np.any(elapsed < 0):
        raise ValueError(f"event {int(np.argmax(elapsed < 0))} is after now={now}")
    check_drift_finite(nu2, alphas.max(), elapsed.max())
    a_eff = effective_discriminations(alphas, elapsed, nu2)
    theta, converged, iterations = batched_vector_map(
        theta0, a_eff[None], betas[None], correct[None], concept_idx[None],
        np.ones((1, len(alphas))), precision, solver,
    )
    return ProficiencyEstimate(theta[0], bool(converged[0]), int(iterations[0]), concept_ids)


def map_estimate_vector(
    history: Sequence[ResponseEvent],
    now: float,
    temporal: TemporalConfig,
    prior: StructuredPrior,
    solver: SolverConfig = DEFAULT_SOLVER,
) -> ProficiencyEstimate:
    """`estimate_history` on a history of events; empty history returns zero.

    Raises KeyError if an event's concept is not a node of the prior's graph.
    """
    index = prior.graph.index
    try:
        concept_idx = np.array([index[ev.item.concept_id] for ev in history], dtype=np.intp)
    except KeyError as exc:
        raise KeyError(
            f"concept {exc.args[0]!r} of a history item is not a node of the prior's graph"
        ) from None
    alphas, betas, correct, steps, stamps = np.array(
        [(ev.item.discrimination, ev.item.difficulty, ev.correct, ev.step_index, ev.timestamp)
         for ev in history], dtype=float,
    ).reshape(-1, 5).T.copy()
    return estimate_history(
        alphas, betas, correct, temporal.event_time(steps, stamps), now,
        temporal.drift_variance, prior.precision, concept_idx, solver, prior.graph.concepts,
    )


def predict_next(estimate: ProficiencyEstimate, item: ItemParams) -> float:
    """Probability the student answers `item` correctly right now."""
    theta = estimate.coordinate(item.concept_id)
    return float(probit(item.discrimination * (theta - item.difficulty)))


# -- the batched lockstep solver ----------------------------------------------
#
# Array contract: cell arrays have shape (S, T), and every solve passes an
# (S, T) float array of per-cell counts.  Cells of count zero are padding:
# counts weight every term, so a zero count zeroes all three, padded cells
# need only carry finite values, and a row sums only over its extent, the
# cells up to its last counted one.  `count_rows` builds every padded layout
# from flat per-record columns.


def count_rows(group: np.ndarray, n_groups: int, key: np.ndarray, *columns: np.ndarray):
    """Distinct records of each group, one cell each: (slot, counts, *padded columns).

    Records of one group with equal integer `key` share a cell, so they must
    agree on every column; a key unique per record gives each its own cell.
    Row g holds group g's cells left-aligned in order of first occurrence, and
    every group gets a row, empty when it holds no records.  Record i fills
    cell slot[i] of its row, counts[g, k] is how many records fill cell k of
    row g (0 on padding), and the columns hold each cell's values (0 on
    padding).
    """
    pair = group * (int(key.max()) + 1) + key
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    # distinct pairs by group, then by first occurrence; the sort keys are unique
    order = np.argsort(group[first] * len(group) + first)
    openers = first[order]
    rows = group[openers]
    widths = np.bincount(rows, minlength=n_groups)
    cols = np.arange(len(openers)) - np.repeat(np.cumsum(widths) - widths, widths)
    slot_of = np.empty(len(openers), dtype=np.intp)
    slot_of[order] = cols
    slot = slot_of[inverse]
    shape = (n_groups, int(widths.max()))
    counts = np.bincount(group * shape[1] + slot, minlength=shape[0] * shape[1])

    def padded(column):
        out = np.zeros(shape, dtype=column.dtype)
        out[rows, cols] = column[openers]
        return out

    return (slot, counts.reshape(shape).astype(float), *map(padded, columns))


class StackedLogPosterior:
    """Log-posteriors of S independent problems that share one Gaussian prior.

    Row s is -0.5 (theta_s - m)' P (theta_s - m) plus the Bernoulli-probit
    terms of its cells, cell j reading coordinate concept_idx[s, j] and
    counted counts[s, j] times.  Called at an (S, C) theta it returns the
    (S,) values, the (S, C) gradients and the (S, C) diagonal of the data
    curvature; the Hessian of row s is diag(curvature_s) - P.  A call is two
    parts: `terms`, the kernel pass, and `reduce`, which turns those per-cell
    terms into the three results.  `direction` forms and solves the Newton
    system, the only place the solver meets P.  counts is an (S, T) float
    array that weights every term, so a zero count is padding and its terms
    need only be finite; a history of one event per cell passes ones.  What
    is fixed for a whole solve is built once here, not per call: the response
    signs folded into the discriminations (signed_a), the count-weighted
    discriminations the gradient and curvature read, each row's extent, the
    reduction and scatter indices and whether P is coupled.  `keep` drops
    retired rows from every later call.  With one concept every event reads
    the only coordinate, so the gather is a broadcast, the scatter a row sum,
    and concept_idx is not read (it may be None).  A row sums only up to its
    last counted cell: how much padding follows is decided by the other rows
    of a batch, and must not move a row's bits.
    """

    def __init__(self, a_eff, beta, correct, concept_idx, counts, precision,
                 prior_mean: float = 0.0):
        self.signed_a = np.where(correct > 0, a_eff, -a_eff)
        self.counts = counts
        self.grad_a = self.signed_a * counts
        self.curv_a = a_eff * a_eff * counts
        # each row's cells up to its last counted one; what lies past it is
        # padding that other rows of the batch decide
        self.extent = counts.shape[1] - np.argmax((counts != 0)[:, ::-1], axis=1)
        self.beta = beta
        self.precision = precision
        self.prior_mean = prior_mean
        self.p_diag = np.diagonal(precision)
        # a positive definite precision has a nonzero diagonal, so this counts
        # whether any off-diagonal entry is nonzero
        self.coupled = np.count_nonzero(precision) > len(precision)
        self.one_concept = precision.shape[0] == 1
        self.concept_idx = None if self.one_concept else concept_idx
        self._scatter_index()

    def _scatter_index(self):
        n_students, width = self.beta.shape
        # reduceat bounds: row s is summed over [s * width, s * width + extent)
        segments = np.arange(0, n_students * width, width).repeat(2)
        segments[1::2] += self.extent
        self.segments = segments[:-1] if self.extent[-1] == width else segments
        self.flat_idx = None
        if self.one_concept:
            return
        n_concepts = self.precision.shape[0]
        self.cell_idx = np.arange(n_students)[:, None] * n_concepts + self.concept_idx
        self.flat_idx = self.cell_idx.ravel()
        self.shape = (n_students, n_concepts)

    def keep(self, rows: np.ndarray) -> None:
        """Restrict every later call to `rows`, in that order."""
        self.signed_a, self.grad_a, self.curv_a = (
            self.signed_a[rows], self.grad_a[rows], self.curv_a[rows])
        self.beta, self.counts, self.extent = self.beta[rows], self.counts[rows], self.extent[rows]
        if self.concept_idx is not None:
            self.concept_idx = self.concept_idx[rows]
        self._scatter_index()

    def terms(self, theta: np.ndarray):
        """The kernel pass at an (S, C) theta: per-cell (ll, mills, d2).

        These are the kernel's outputs in the signed argument, before the
        discriminations and counts scale them, so any objective that forms
        the same arguments on the same cells can reduce them.
        """
        if self.one_concept:
            zs = theta - self.beta
        else:
            zs = theta.take(self.cell_idx)
            zs -= self.beta
        zs *= self.signed_a
        return bernoulli_probit_terms(zs)

    def _row_sums(self, cells: np.ndarray) -> np.ndarray:
        """Each row's sum of cells over its extent, so padding columns leave a
        row's bits unchanged."""
        return np.add.reduceat(cells.ravel(), self.segments)[::2]

    def _scatter(self, cells: np.ndarray) -> np.ndarray:
        """Sum of cells onto the (S, C) coordinates they read."""
        if self.flat_idx is None:
            return self._row_sums(cells)[:, None]
        return np.bincount(self.flat_idx, weights=cells.ravel(),
                           minlength=self.shape[0] * self.shape[1]).reshape(self.shape)

    def reduce(self, theta: np.ndarray, terms):
        """(value, grad, curv) at theta from its per-cell terms, which stay unchanged."""
        ll, mills, d2 = terms
        dev = theta - self.prior_mean
        if self.one_concept:
            p = self.precision[0, 0]
            value = -(0.5 * p) * dev[:, 0] ** 2
            p_dev = dev * p
        else:
            # einsum sums each row on its own, where `@` rounds a lone row
            # (BLAS gemv) differently from a batch (gemm)
            p_dev = np.einsum("sc,cd->sd", dev, self.precision)
            value = -0.5 * np.einsum("sc,sc->s", dev, p_dev)
        cells = np.multiply(mills, self.grad_a)  # the gradient term: count * sign * a_eff * mills
        grad = -p_dev + self._scatter(cells)
        np.multiply(d2, self.curv_a, out=cells)
        curv = self._scatter(cells)
        value += self._row_sums(np.multiply(ll, self.counts, out=cells))
        return value, grad, curv

    def __call__(self, theta: np.ndarray):
        return self.reduce(theta, self.terms(theta))

    def direction(self, grad: np.ndarray, curv: np.ndarray) -> np.ndarray:
        """The Newton direction (P - diag(curv))^-1 grad of every row.

        curv is the data curvature, <= 0, so the system is positive definite;
        a diagonal P solves it elementwise, a coupled one per row by LAPACK.
        """
        if not self.coupled:
            return grad / (self.p_diag - curv)
        n_rows, n_concepts = curv.shape
        neg_hess = np.empty((n_rows, n_concepts, n_concepts))
        neg_hess[...] = self.precision
        # the strided view of each row's diagonal
        neg_hess.reshape(n_rows, n_concepts * n_concepts)[:, ::n_concepts + 1] -= curv
        return np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]


def batched_vector_map(
    theta0: np.ndarray,
    a_eff: np.ndarray,
    beta: np.ndarray,
    correct: np.ndarray,
    concept_idx: Optional[np.ndarray],
    counts: np.ndarray,
    precision: np.ndarray,
    solver: SolverConfig = DEFAULT_SOLVER,
):
    """Solve S independent MAP problems of counted cells under one zero-mean prior.

    theta0 is (S, C); cell arrays and counts are (S, T); concept_idx holds
    the coordinate each cell reads and may be None when C == 1; counts weight
    the cells as in `StackedLogPosterior`.  `newton_map` from a cold start,
    returning (theta, converged, iterations) with shapes (S, C), (S,) bool
    and (S,) int.
    """
    objective = StackedLogPosterior(a_eff, beta, correct, concept_idx, counts, precision)
    return newton_map(objective, theta0, None, solver)


def newton_map(objective: StackedLogPosterior, theta0: np.ndarray, terms=None,
               solver: SolverConfig = DEFAULT_SOLVER):
    """Maximize every row of `objective` from theta0: the one Newton solver.

    terms is the list [ll, mills, d2] of per-cell terms at theta0, or None
    to compute them for the first evaluation only.  It must equal
    `objective.terms(theta0)` bit for bit on counted cells; padded terms need
    only be finite and of the kernel's signs, since the zero counts there
    turn them into the same signed zeros.  A list passed in is updated in
    place to the terms at each row's solution.
    The objective forms each Newton step (`direction`); the solver never
    reads the prior.  A row is done when its max-abs gradient entry drops to
    the solver's gradient tolerance (converged) or its line search finds no
    acceptable step (stalled); done rows retire, and every later evaluation,
    step and solve runs on the live rows only.  At most the solver's
    max_iterations Newton steps are taken.  Returns (theta, converged,
    iterations) with shapes (S, C), (S,) bool and (S,) int.
    """
    tol = solver.gradient_tolerance
    theta = np.array(theta0, dtype=float, copy=True)
    n_students = len(theta)
    theta_out = np.empty_like(theta)
    keep = terms is not None
    value, grad, curv = objective.reduce(
        theta, terms if keep else objective.terms(theta))
    live = np.arange(n_students)  # solve row of each live row
    iterations = np.zeros(n_students, dtype=np.int64)
    converged = np.zeros(n_students, dtype=bool)

    def retire(done):
        nonlocal live, theta, value, grad, curv
        theta_out[live[done]] = theta[done]
        rows = np.flatnonzero(~done)
        live, theta, value = live[rows], theta[rows], value[rows]
        grad, curv = grad[rows], curv[rows]
        if len(rows):
            objective.keep(rows)

    for _ in range(solver.max_iterations):
        grad_max = np.abs(grad).max(axis=1)
        active = grad_max > tol
        if not active.all():
            converged[live[~active]] = grad_max[~active] <= tol
            retire(~active)
            if not len(live):
                break
        iterations[live] += 1
        direction = objective.direction(grad, curv)
        slope = np.einsum("sc,sc->s", grad, direction)
        slack = ARMIJO_SLACK * (1.0 + np.abs(value))
        step = np.ones(len(live))
        need = np.ones(len(live), dtype=bool)
        for _ in range(MAX_BACKTRACKS):
            # rows that no longer need a step are evaluated but never taken
            cand = theta + step[:, None] * direction
            cand_terms = objective.terms(cand)
            v2, g2, c2 = objective.reduce(cand, cand_terms)
            ok = need & np.isfinite(v2) & (v2 >= value + ARMIJO_C1 * step * slope - slack)
            # terms stay one row per problem; retired rows hold their solution's
            if keep and ok.all() and len(live) == n_students:
                terms[:] = cand_terms
            elif keep and ok.any():
                taken = slice(None) if ok.all() else ok
                for kept, cand_kept in zip(terms, cand_terms):
                    kept[live[ok]] = cand_kept[taken]
            del cand_terms  # freed before the next candidate's kernel pass
            if ok.all():  # every row takes this step: the candidate is the new state
                theta, value, grad, curv = cand, v2, g2, c2
                break
            take = ok[:, None]
            np.copyto(theta, cand, where=take)
            np.copyto(grad, g2, where=take)
            np.copyto(curv, c2, where=take)
            value = np.where(ok, v2, value)
            need &= ~ok
            if not need.any():
                break
            step = np.where(need, 0.5 * step, step)
        else:  # stalled: some row's search accepted no step
            retire(need)
            if not len(live):
                break
    if len(live):
        converged[live] = np.abs(grad).max(axis=1) <= tol
        theta_out[live] = theta
    return theta_out, converged, iterations
