"""Probit response model: items, events, the clock and the likelihood kernel.

The correctness probability for a student at proficiency theta answering an
item with discrimination alpha and difficulty beta is Phi(alpha*(theta-beta)),
with Phi the standard normal CDF.  Older responses enter the posterior over
the current proficiency through an attenuated "effective discrimination"
alpha / sqrt(1 + alpha^2 * nu2 * elapsed), where nu2 is the per-unit drift
variance of the proficiency random walk.  `bernoulli_probit_terms` is the one
likelihood kernel.  It takes the signed argument zs = +-alpha*(theta-beta),
the sign being the response's, so that every response's likelihood is
Phi(zs), and returns (ll, mills, d2); callers fold the sign into the
discrimination once per solve.  The log-posterior built on it, and its
solver, live in `inference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

# Predicted probabilities are clamped to this band before scoring log loss;
# the objective kernel itself never clamps, log_ndtr is finite everywhere.
PROB_FLOOR = 1e-12

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def probit(x):
    """Standard normal CDF, saturating inside the open interval (0, 1).

    Accepts scalars or arrays.  Saturation keeps downstream logarithms finite;
    the design-level clamp to [1e-12, 1 - 1e-12] is applied separately where
    predicted probabilities are scored.
    """
    p = ndtr(x)
    return np.clip(p, 1e-300, 1.0 - 1e-16)


def effective_discriminations(alphas: np.ndarray, elapsed: np.ndarray,
                              nu2: float) -> np.ndarray:
    """Discrimination of past responses on the current proficiency, elementwise.

    alpha / sqrt(1 + alpha^2 * nu2 * elapsed): equals alpha at elapsed 0 and
    decays toward 0 as a response recedes into the past; returns `alphas`
    itself when nu2 == 0.
    """
    if nu2 == 0.0:
        return alphas
    return alphas / np.sqrt(1.0 + alphas * alphas * (nu2 * elapsed))


def check_drift_finite(nu2: float, max_alpha: float, max_elapsed: float) -> None:
    """Raise ValueError naming nu2 when alpha^2 * nu2 * elapsed overflows.

    Checked once on the largest discrimination and elapsed time of a call,
    grouped as `effective_discriminations` groups it: the product only grows
    with either, so where it is finite there it is finite on every event.
    Past that a response would silently get discrimination 0.
    """
    if nu2 == 0.0:
        return
    # Python floats overflow to inf without numpy's warning
    nu2, max_alpha, max_elapsed = float(nu2), float(max_alpha), float(max_elapsed)
    if not math.isfinite(max_alpha * max_alpha * (nu2 * max_elapsed)):
        raise ValueError(
            f"nu2={nu2} is too large: alpha^2 * nu2 * elapsed overflows (largest "
            f"discrimination {max_alpha}, largest elapsed time {max_elapsed})"
        )


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


def bernoulli_probit_terms(zs: np.ndarray):
    """Per-response log-likelihood terms in the signed argument zs, with two derivatives.

    A response r at z = alpha*(theta-beta) has zs = z when r = 1 and -z when
    r = 0, so its likelihood is Phi(zs) either way.  Callers fold that sign
    into the discrimination once per solve (signed_a = +-a_eff, zs = signed_a
    * (theta - beta)).  Returns (ll, mills, d2): ll = log Phi(zs), mills the
    inverse Mills ratio R(zs) = phi(zs) / Phi(zs), and d2 = -R(zs)*(zs + R(zs))
    the second derivative of ll in z.  The first derivative in z is sign *
    mills, so d ll / d theta = signed_a * mills.  Evaluated through log_ndtr and
    R in log space so value stays consistent with derivatives; past |zs| = 40
    R comes from its asymptotic series, so -1 <= d2 <= 0 holds for every zs
    and infinite zs gives the limits (ll -inf and mills inf on the losing
    side, d2 = -1 there).  Mills and d2 are built in place, with no
    temporaries beyond the three outputs.
    """
    ll = log_ndtr(zs)
    log_p = ll
    tail = None
    if np.abs(zs).max(initial=0.0) > _TAIL_Z:
        tail = np.abs(zs) > _TAIL_Z
        zs_tail = zs[tail]
        zs = np.where(tail, 0.0, zs)
        log_p = np.where(tail, 0.0, ll)
    # R(zs) = exp(-zs^2/2 - log sqrt(2 pi) - log Phi(zs))
    mills = np.multiply(zs, -0.5)
    mills *= zs
    mills -= _LOG_SQRT_2PI
    mills -= log_p
    np.exp(mills, out=mills)
    d2 = np.add(zs, mills)
    d2 *= mills
    np.negative(d2, out=d2)
    if tail is not None:
        mills[tail], d2[tail] = _tail_mills(zs_tail)
    return ll, mills, d2
