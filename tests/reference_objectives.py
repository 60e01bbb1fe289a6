"""Reference log-posteriors of one response history, the oracles for the solver.

Each objective is written straight from the model, one history of
`ResponseEvent`s at a time, and returns value, gradient and curvature (or
Hessian).  Both are concave.  The checks C2/C3 probe them by finite
differences and eigenvalues, and the solver tests check that the batched
solve lands on their maximizer.  `prior_value_and_grad` is the concept
prior's log-density summed edge by edge, the oracle of `build_prior`'s
precision matrix.  `unsigned_probit_terms` is the kernel as it
was written before the response sign moved out of it, kept as the bit-for-bit
oracle of the signed kernel.  `calibrate_with_fresh_passes` is the
calibration loop as it was before its blocks shared per-cell terms, on
the same counted cells: every block starts with its own kernel pass and the
joint objective makes one more, kept as the bit-for-bit oracle of
`calibrate`.  `per_event_harness` is the online harness as it was before
static histories became counted cells: every step copies each live
student's whole history, one cell per event, and solves it from a fresh
kernel pass, the oracle of `run_online_evaluation`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import log_ndtr

from ogive import calibration
from ogive.evaluation import model_prior, record_columns
from ogive.concept_graph import StructuredPrior
from ogive.inference import (
    DEFAULT_SOLVER,
    StackedLogPosterior,
    batched_vector_map,
    count_rows,
    newton_map,
)
from ogive.irt_core import (
    _LOG_SQRT_2PI,
    _TAIL_Z,
    ResponseEvent,
    TemporalConfig,
    _tail_mills,
    bernoulli_probit_terms,
    effective_discriminations,
    probit,
)


def unsigned_probit_terms(z: np.ndarray, correct: np.ndarray):
    """(ll, d1, d2) of responses `correct` in z = alpha*(theta-beta), sign applied inside.

    d1 and d2 are the derivatives of ll in z.  Written with fresh temporaries
    throughout; `bernoulli_probit_terms(sign * z)` must return ll, sign * d1
    and d2 bit for bit.
    """
    sign = np.where(correct > 0, 1.0, -1.0)
    zs = sign * z
    log_p = log_ndtr(zs)
    ll = log_p
    tail = None
    if np.abs(zs).max(initial=0.0) > _TAIL_Z:
        tail = np.abs(zs) > _TAIL_Z
        zs_tail = zs[tail]
        zs = np.where(tail, 0.0, zs)
        log_p = np.where(tail, 0.0, log_p)
    mills = np.exp(-0.5 * zs * zs - _LOG_SQRT_2PI - log_p)
    d2 = -mills * (zs + mills)
    if tail is not None:
        mills[tail], d2[tail] = _tail_mills(zs_tail)
    d1 = sign * mills
    return ll, d1, d2


def signed_terms(z: np.ndarray, correct: np.ndarray):
    """(ll, d1, d2) in z through the signed kernel: the sign goes in and back out."""
    sign = np.where(correct > 0, 1.0, -1.0)
    ll, mills, d2 = bernoulli_probit_terms(sign * z)
    return ll, sign * mills, d2


class ScalarObjectiveValue(NamedTuple):
    value: float
    gradient: float
    curvature: float


class VectorObjectiveValue(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def prior_value_and_grad(prior: StructuredPrior, theta: np.ndarray):
    """Unnormalized log-density of the concept prior at theta, and its gradient.

    -lam*sum(theta^2) - gamma*sum over prerequisite edges (n, m) of
    (theta_n - theta_m)^2, summed over `prior.graph.edges` with the prior's
    lam and gamma; the precision matrix is never read.
    """
    theta = np.asarray(theta, dtype=float)
    index = prior.graph.index
    value = -prior.lam * float(theta @ theta)
    grad = -2.0 * prior.lam * theta
    for n, m in prior.graph.edges:
        diff = theta[index[n]] - theta[index[m]]
        value -= prior.gamma * diff * diff
        grad[index[n]] -= 2.0 * prior.gamma * diff
        grad[index[m]] += 2.0 * prior.gamma * diff
    return value, grad


def prior_log_density(prior: StructuredPrior, theta: np.ndarray) -> float:
    """-lam*sum(theta^2) - gamma*sum((theta_n - theta_m)^2), from `prior_value_and_grad`."""
    return prior_value_and_grad(prior, theta)[0]


def _history_arrays(history: Sequence[ResponseEvent], now: float,
                    temporal: TemporalConfig):
    """Item parameters, responses and elapsed times of a history, as arrays."""
    if len(history) == 0:
        raise ValueError("history must contain at least one response")
    rows = [(ev.item.discrimination, ev.item.difficulty, ev.correct, ev.step_index,
             ev.timestamp) for ev in history]
    alphas, betas, correct, steps, stamps = map(np.array, zip(*rows))
    elapsed = now - temporal.event_time(steps, stamps)
    if np.any(elapsed < 0):
        bad = int(np.argmax(elapsed < 0))
        raise ValueError(
            f"event {bad} (item {history[bad].item.item_id!r}) is after now={now}"
        )
    return alphas, betas, correct, elapsed


def _concept_indices(history: Sequence[ResponseEvent], index: dict) -> np.ndarray:
    """Coordinate each event reads; raises if its concept is not in `index`."""
    concept_idx = np.empty(len(history), dtype=np.intp)
    for j, ev in enumerate(history):
        cid = ev.item.concept_id
        if cid not in index:
            raise KeyError(
                f"event {j} (item {ev.item.item_id!r}): concept {cid!r} "
                "is not a node of the prior's graph"
            )
        concept_idx[j] = index[cid]
    return concept_idx


def approx_log_posterior_scalar(theta: float, history: Sequence[ResponseEvent],
                                now: float, temporal: TemporalConfig,
                                lam: float, mean: float = 0.0) -> ScalarObjectiveValue:
    """Unnormalized log-posterior of the current scalar proficiency.

    -lam*(theta-mean)^2 plus the sum of per-response Bernoulli-probit terms
    evaluated at the effective discriminations for elapsed(now, event).
    Concave in theta; gradient and curvature are returned alongside the value.
    """
    alphas, betas, correct, elapsed = _history_arrays(history, now, temporal)
    a_eff = effective_discriminations(alphas, elapsed, temporal.drift_variance)
    z = a_eff * (theta - betas)
    ll, d1, d2 = signed_terms(z, correct)
    dev = theta - mean
    value = -lam * dev * dev + float(ll.sum())
    grad = -2.0 * lam * dev + float((a_eff * d1).sum())
    curv = -2.0 * lam + float((a_eff * a_eff * d2).sum())
    return ScalarObjectiveValue(value, grad, curv)


def approx_log_posterior_vector(theta_vec: np.ndarray,
                                history: Sequence[ResponseEvent], now: float,
                                temporal: TemporalConfig,
                                prior: StructuredPrior) -> VectorObjectiveValue:
    """Unnormalized log-posterior of the per-concept proficiency vector.

    The prior contributes -lam*sum(theta^2) - gamma*sum over prerequisite
    pairs of (theta_n - theta_m)^2; each response reads only the coordinate of
    its item's concept.  Raises if an event's concept is not in the prior's
    graph.
    """
    theta_vec = np.asarray(theta_vec, dtype=float)
    index = prior.graph.index
    if theta_vec.shape != (len(index),):
        raise ValueError(
            f"theta_vec has shape {theta_vec.shape}, expected ({len(index)},)"
        )
    concept_idx = _concept_indices(history, index)
    alphas, betas, correct, elapsed = _history_arrays(history, now, temporal)
    a_eff = effective_discriminations(alphas, elapsed, temporal.drift_variance)
    z = a_eff * (theta_vec[concept_idx] - betas)
    ll, d1, d2 = signed_terms(z, correct)

    p_value, grad = prior_value_and_grad(prior, theta_vec)
    value = p_value + float(ll.sum())
    np.add.at(grad, concept_idx, a_eff * d1)
    hess = -prior.precision.copy()
    np.add.at(hess, (concept_idx, concept_idx), a_eff * a_eff * d2)
    return VectorObjectiveValue(value, grad, hess)


def calibrate_with_fresh_passes(training, config):
    """(item ids, alpha, beta, rounds, final_delta, objective, floored ids) of the old loop.

    Each of a round's blocks is a cold `newton_map` call on `calibrate`'s
    counted layouts, and the joint objective is a separate kernel pass over
    the student layout's cells, weighted by their counts.
    """
    c = calibration
    records = training.all_records()
    students = list(training.students)
    s_index = {s: i for i, s in enumerate(students)}
    item_ids = list(dict.fromkeys(r.item_id for r in records))
    q_index = {q: j for j, q in enumerate(item_ids)}
    n_students, n_items = len(students), len(item_ids)
    s_idx = np.array([s_index[r.student_id] for r in records])
    q_idx = np.array([q_index[r.item_id] for r in records])
    resp = np.array([r.correct for r in records], dtype=float)
    _, counts, ev_item, ev_resp = count_rows(
        s_idx, n_students, 2 * q_idx + (resp > 0), q_idx, resp)
    _, item_counts, item_student, item_resp = count_rows(
        q_idx, n_items, 2 * s_idx + (resp > 0), s_idx, resp)
    ev_concept = np.zeros(counts.shape, dtype=np.intp)
    item_concept = np.zeros(item_counts.shape, dtype=np.intp)
    lam_student = 1.0 / (2.0 * c.STUDENT_PRIOR_VARIANCE)
    student_precision = np.array([[2.0 * lam_student]])
    difficulty_precision = np.array([[1.0 / c.DIFFICULTY_PRIOR_VARIANCE]])
    discrimination_precision = np.array([[1.0 / c.DISCRIMINATION_PRIOR_VARIANCE]])
    floor = config.discrimination_floor
    alpha = np.full(n_items, max(c.DISCRIMINATION_PRIOR_MEAN, floor))
    beta = np.full(n_items, c.DIFFICULTY_PRIOR_MEAN)
    theta = np.zeros(n_students)
    sign = np.where(ev_resp > 0, 1.0, -1.0)

    def joint_objective(th, a, b) -> float:
        zs = a[ev_item] * (th[:, None] - b[ev_item])
        zs *= sign
        ll, _, _ = bernoulli_probit_terms(zs)
        value = float((ll * counts).sum())
        value -= lam_student * float(((th - c.STUDENT_PRIOR_MEAN) ** 2).sum())
        value -= float(((b - c.DIFFICULTY_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * c.DIFFICULTY_PRIOR_VARIANCE)
        value -= float(((a - c.DISCRIMINATION_PRIOR_MEAN) ** 2).sum()) / (
            2.0 * c.DISCRIMINATION_PRIOR_VARIANCE)
        return value

    rounds_run, final_delta = 0, None
    objective = joint_objective(theta, alpha, beta)
    for _ in range(config.max_outer_rounds):
        rounds_run += 1
        theta = newton_map(StackedLogPosterior(
            alpha[ev_item], beta[ev_item], ev_resp, ev_concept, counts, student_precision,
            c.STUDENT_PRIOR_MEAN,
        ), theta[:, None])[0][:, 0]
        after_students = joint_objective(theta, alpha, beta)
        assert after_students >= objective - 1e-9 * max(1.0, abs(objective))
        th_items = theta[item_student]
        new_alpha, new_beta = alpha, beta
        for _ in range(c.ITEM_SWEEPS):
            new_beta = newton_map(StackedLogPosterior(
                np.repeat(-new_alpha[:, None], item_counts.shape[1], axis=1), th_items,
                item_resp, item_concept, item_counts, difficulty_precision,
                c.DIFFICULTY_PRIOR_MEAN,
            ), new_beta[:, None])[0][:, 0]
            new_alpha = np.maximum(newton_map(StackedLogPosterior(
                th_items - new_beta[:, None], np.zeros(item_counts.shape), item_resp,
                item_concept, item_counts, discrimination_precision,
                c.DISCRIMINATION_PRIOR_MEAN,
            ), new_alpha[:, None])[0][:, 0], floor)
        after_items = joint_objective(theta, new_alpha, new_beta)
        assert after_items >= after_students - 1e-9 * max(1.0, abs(after_students))
        final_delta = float(
            np.mean(np.concatenate([np.abs(new_alpha - alpha), np.abs(new_beta - beta)])))
        alpha, beta, objective = new_alpha, new_beta, after_items
        if final_delta < config.convergence_delta:
            break
    floored = tuple(q for q, a in zip(item_ids, alpha) if a <= floor * (1.0 + 1e-9))
    return (item_ids, alpha, beta, rounds_run, final_delta,
            objective if rounds_run else None, floored)


def per_event_harness(data, bank, model, prior_graph=None, solver=DEFAULT_SOLVER,
                      clock="step", seconds_per_unit=1.0):
    """(probabilities, n_unconverged) of the harness with per-event cells.

    Students in insertion order, events of bank-unknown items dropped; at
    step t every student with at least t events is solved, warm-started,
    from a fresh copy of its first t - 1 events.
    """
    temporal = TemporalConfig(model.nu2, clock, seconds_per_unit)
    _, alphas, betas, _ = bank.arrays()
    precision, item_concept, _ = model_prior(model, prior_graph, bank)
    columns = [record_columns(records, bank) for records in data.students.values()]
    group = np.concatenate([np.full(int((item >= 0).sum()), s)
                            for s, (item, _, _) in enumerate(columns)])
    item, correct, stamp = (np.concatenate([c[k][c[0] >= 0] for c in columns])
                            for k in range(3))
    _, group = np.unique(group, return_inverse=True)
    n_students = int(group.max()) + 1
    _, events, item_pad, correct_pad, stamp_pad = count_rows(
        group, n_students, np.arange(len(group)), item, correct, stamp)
    mask = events > 0
    lengths = mask.sum(axis=1)
    width = mask.shape[1]
    alpha_pad, beta_pad, cidx_pad = alphas[item_pad], betas[item_pad], item_concept[item_pad]
    time_pad = temporal.event_time(np.broadcast_to(np.arange(1.0, width + 1), mask.shape),
                                   stamp_pad)
    theta = np.zeros((n_students, len(precision)))
    probs = np.zeros(mask.shape)
    n_unconverged = 0
    for col in range(width):
        idx = np.flatnonzero(lengths > col)
        if col:
            elapsed = time_pad[idx, col][:, None] - time_pad[idx, :col]
            a_eff = effective_discriminations(alpha_pad[idx, :col], elapsed, model.nu2)
            th, converged, _ = batched_vector_map(
                theta[idx], a_eff, beta_pad[idx, :col], correct_pad[idx, :col],
                cidx_pad[idx, :col], events[idx, :col], precision, solver)
            theta[idx] = th
            n_unconverged += int((~converged).sum())
        z = alpha_pad[idx, col] * (theta[idx, cidx_pad[idx, col]] - beta_pad[idx, col])
        probs[idx, col] = probit(z)
    return probs[mask], n_unconverged
