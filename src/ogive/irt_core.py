"""Probit response model and approximate log-posterior objectives.

The correctness probability for a student at proficiency theta answering an
item with discrimination alpha and difficulty beta is Phi(alpha*(theta-beta)),
with Phi the standard normal CDF.  Older responses enter the posterior over
the current proficiency through an attenuated "effective discrimination"
alpha / sqrt(1 + alpha^2 * nu2 * elapsed), where nu2 is the per-unit drift
variance of the proficiency random walk.  Both the scalar objective and the
per-concept vector objective are concave and return value, gradient and
curvature; they are the single-history reference for the batched objective
that the solver in `inference` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TYPE_CHECKING

import numpy as np
from scipy.special import log_ndtr, ndtr

if TYPE_CHECKING:
    from .concept_graph import StructuredPrior

__all__ = [
    "ItemParams",
    "ResponseEvent",
    "TemporalConfig",
    "ScalarPriorConfig",
    "probit",
    "response_probability",
    "effective_discrimination",
    "gaussian_probit_integral",
    "approx_log_posterior_scalar",
    "approx_log_posterior_vector",
    "ScalarObjectiveValue",
    "VectorObjectiveValue",
]

# Predicted probabilities are clamped to this band before scoring log loss;
# the objective kernel itself never clamps, log_ndtr is finite everywhere.
PROB_FLOOR = 1e-12

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ItemParams:
    """Fixed parameters of one assessment item."""

    item_id: str
    discrimination: float
    difficulty: float
    concept_id: str = "all"

    def __post_init__(self):
        if not self.item_id:
            raise ValueError("item_id must be a nonempty string")
        if not math.isfinite(self.discrimination) or self.discrimination <= 0.0:
            raise ValueError(
                f"item {self.item_id!r}: discrimination must be finite and > 0, "
                f"got {self.discrimination!r}"
            )
        if not math.isfinite(self.difficulty):
            raise ValueError(f"item {self.item_id!r}: difficulty must be finite")


@dataclass(frozen=True)
class ResponseEvent:
    """One observed response in a student's history."""

    item: ItemParams
    correct: int
    step_index: int
    timestamp: float = 0.0

    def __post_init__(self):
        if self.correct not in (0, 1):
            raise ValueError(f"correct must be 0 or 1, got {self.correct!r}")
        if self.step_index < 1:
            raise ValueError("step_index must be >= 1, the step clock is 1-based")
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValueError("timestamp must be finite and nonnegative")


@dataclass(frozen=True)
class TemporalConfig:
    """Drift variance plus the clock that converts history positions to elapsed time.

    clock "step" measures elapsed time in history steps; "wall" divides
    timestamp differences by seconds_per_unit.  drift_variance 0 recovers the
    static model exactly.
    """

    drift_variance: float = 0.0
    clock: str = "step"
    seconds_per_unit: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.drift_variance) or self.drift_variance < 0.0:
            raise ValueError("drift_variance must be finite and >= 0")
        if self.clock not in ("step", "wall"):
            raise ValueError(f"clock must be 'step' or 'wall', got {self.clock!r}")
        if not (math.isfinite(self.seconds_per_unit) and self.seconds_per_unit > 0.0):
            raise ValueError("seconds_per_unit must be finite and > 0")

    def event_time(self, step_index, timestamp):
        """Clock time of events, in clock units; elementwise on arrays.

        The step index (1-based) under the step clock, timestamp /
        seconds_per_unit under the wall clock.
        """
        if self.clock == "step":
            return step_index
        return timestamp / self.seconds_per_unit


STATIC = TemporalConfig(0.0)


@dataclass(frozen=True)
class ScalarPriorConfig:
    """Gaussian prior over a scalar proficiency, stored as (mean, variance).

    The quadratic-penalty weight lambda = 1 / (2 * variance) is derived, never
    stored, so the two parameterizations cannot drift apart.
    """

    mean: float = 0.0
    variance: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.variance) or self.variance <= 0.0:
            raise ValueError("prior variance must be finite and > 0")
        if not math.isfinite(self.mean):
            raise ValueError("prior mean must be finite")

    @property
    def precision_weight(self) -> float:
        return 1.0 / (2.0 * self.variance)

    @classmethod
    def from_precision_weight(cls, lam: float, mean: float = 0.0) -> "ScalarPriorConfig":
        if lam <= 0.0:
            raise ValueError("precision weight must be > 0")
        return cls(mean=mean, variance=1.0 / (2.0 * lam))


def probit(x):
    """Standard normal CDF, saturating inside the open interval (0, 1).

    Accepts scalars or arrays.  Saturation keeps downstream logarithms finite;
    the design-level clamp to [1e-12, 1 - 1e-12] is applied separately where
    predicted probabilities are scored.
    """
    p = ndtr(x)
    return np.clip(p, 1e-300, 1.0 - 1e-16)


def response_probability(theta: float, item: ItemParams) -> float:
    """Probability of a correct response at proficiency theta."""
    return float(probit(item.discrimination * (theta - item.difficulty)))


def effective_discrimination(item: ItemParams, elapsed: float,
                             temporal: TemporalConfig) -> float:
    """Discrimination of a past response on the current proficiency.

    alpha / sqrt(1 + alpha^2 * nu2 * elapsed): equals alpha at elapsed 0 or
    nu2 0, and decays toward 0 as the response recedes into the past.
    """
    if elapsed < 0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    return float(effective_discriminations(item.discrimination, elapsed,
                                           temporal.drift_variance))


def effective_discriminations(alphas: np.ndarray, elapsed: np.ndarray,
                              nu2: float) -> np.ndarray:
    """Vectorized effective discrimination; returns `alphas` itself when nu2 == 0."""
    if nu2 == 0.0:
        return alphas
    return alphas / np.sqrt(1.0 + alphas * alphas * (nu2 * elapsed))


def gaussian_probit_integral(alpha: float, beta: float, mu: float,
                             sigma2: float) -> float:
    """Expectation of Phi(alpha*(x-beta)) under x ~ Normal(mu, sigma2).

    Closed form Phi(alpha*(mu-beta)/sqrt(1+alpha^2*sigma2)); sigma2 = 0
    degenerates to the plain response probability.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    return float(probit(alpha * (mu - beta) / math.sqrt(1.0 + alpha * alpha * sigma2)))


# Past this |zs| the log-space ratio loses digits to cancellation on the losing
# side (relative error about eps*zs^4/2 in d2) and zs*zs overflows near 1e154;
# on the winning side phi(zs) underflows to exactly 0 from zs = 38.6 on.
_TAIL_Z = 40.0
# x*(R(-x) - x) = sum_k c_k x^(-2k), highest power first; through k = 7 the
# series is exact to double precision for x >= 40
_TAIL_SERIES = (-1708394.0, 110410.0, -8162.0, 706.0, -74.0, 10.0, -2.0, 1.0)


def _tail_mills(zs: np.ndarray):
    """(R(zs), -R(zs)*(zs + R(zs))) for |zs| > _TAIL_Z, from the asymptotic series."""
    x = np.abs(zs)
    inv_x = 1.0 / x
    u = inv_x * inv_x
    x_delta = np.zeros_like(x)
    for c in _TAIL_SERIES:
        x_delta = x_delta * u + c
    delta = x_delta * inv_x  # R(-x) - x
    losing = zs < 0.0
    mills = np.where(losing, x + delta, 0.0)
    d2 = np.where(losing, -(x_delta + delta * delta), -0.0)
    return mills, d2


def bernoulli_probit_terms(z: np.ndarray, correct: np.ndarray):
    """Per-response log-likelihood terms and derivatives in z = alpha*(theta-beta).

    Returns (ll, d1, d2) where ll = r*log(p) + (1-r)*log(1-p) with p = Phi(z),
    and d1, d2 are its first and second derivatives with respect to z.
    Evaluated through log_ndtr and the inverse Mills ratio so value stays
    consistent with derivatives; past |z| = 40 the ratio comes from its
    asymptotic series, so -1 <= d2 <= 0 holds for every z and infinite z
    gives the limits (ll and d1 infinite on the losing side, d2 = -1 there).
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
    # inverse Mills ratio R(zs) = phi(zs) / Phi(zs), computed in log space
    mills = np.exp(-0.5 * zs * zs - _LOG_SQRT_2PI - log_p)
    d2 = -mills * (zs + mills)
    if tail is not None:
        mills[tail], d2[tail] = _tail_mills(zs_tail)
    d1 = sign * mills
    return ll, d1, d2


class ScalarObjectiveValue(NamedTuple):
    value: float
    gradient: float
    curvature: float


class VectorObjectiveValue(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


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
                                prior: ScalarPriorConfig) -> ScalarObjectiveValue:
    """Unnormalized log-posterior of the current scalar proficiency.

    -lam*(theta-mean)^2 plus the sum of per-response Bernoulli-probit terms
    evaluated at the effective discriminations for elapsed(now, event).
    Concave in theta; gradient and curvature are returned alongside the value.
    """
    alphas, betas, correct, elapsed = _history_arrays(history, now, temporal)
    a_eff = effective_discriminations(alphas, elapsed, temporal.drift_variance)
    z = a_eff * (theta - betas)
    ll, d1, d2 = bernoulli_probit_terms(z, correct)
    lam = prior.precision_weight
    dev = theta - prior.mean
    value = -lam * dev * dev + float(ll.sum())
    grad = -2.0 * lam * dev + float((a_eff * d1).sum())
    curv = -2.0 * lam + float((a_eff * a_eff * d2).sum())
    return ScalarObjectiveValue(value, grad, curv)


def approx_log_posterior_vector(theta_vec: np.ndarray,
                                history: Sequence[ResponseEvent], now: float,
                                temporal: TemporalConfig,
                                prior: "StructuredPrior") -> VectorObjectiveValue:
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
    ll, d1, d2 = bernoulli_probit_terms(z, correct)

    p_value, p_grad = prior.value_and_grad(theta_vec)
    value = p_value + float(ll.sum())
    grad = p_grad.copy()
    np.add.at(grad, concept_idx, a_eff * d1)
    hess = -prior.precision.copy()
    np.add.at(hess, (concept_idx, concept_idx), a_eff * a_eff * d2)
    return VectorObjectiveValue(value, grad, hess)
