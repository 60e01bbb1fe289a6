"""Unit tests for the probit response kernel and the reference log-posteriors."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogive.irt_core import (
    STATIC,
    ItemParams,
    ResponseEvent,
    TemporalConfig,
    bernoulli_probit_terms,
    check_drift_finite,
    effective_discriminations,
    gaussian_probit_integral,
    probit,
)
from ogive.concept_graph import build_prior, chain_graph
from ogive.inference import ProficiencyEstimate, estimate_history, predict_next
from reference_objectives import (
    approx_log_posterior_scalar,
    approx_log_posterior_vector,
    unsigned_probit_terms,
)

# frozen 30-digit standard normal CDF values, computed independently with
# mpmath.erfc at 50-digit working precision
PHI_0 = 0.5
PHI_1 = 0.841344746068542948585232545632
PHI_196 = 0.975002104851779565863415730959
PHI_M196 = 0.0249978951482204341365842690408
PHI_M1 = 1.0 - PHI_1
PHI_M2 = 0.0227501319481792072002826
# quadrature value of the smoothed response curve at alpha=1, beta=0, mu=1,
# sigma2=1, equal to Phi(1/sqrt(2))
INT_1011 = 0.760249938906523269


def test_probit_frozen_oracle_values():
    assert probit(0.0) == pytest.approx(PHI_0, abs=1e-12)
    assert probit(1.96) == pytest.approx(PHI_196, abs=1e-10)
    assert probit(-1.96) == pytest.approx(PHI_M196, abs=1e-10)
    assert probit(1.0) == pytest.approx(PHI_1, abs=1e-10)
    assert probit(-1.0) == pytest.approx(PHI_M1, abs=1e-10)


def test_probit_saturates_inside_open_interval():
    for x in (-500.0, -40.0, 40.0, 500.0):
        p = probit(x)
        assert 0.0 < p < 1.0
        assert np.isfinite(np.log(p))
        assert np.isfinite(np.log1p(-p))


def test_probit_vectorized():
    x = np.array([-2.0, 0.0, 2.0])
    p = probit(x)
    assert p.shape == (3,)
    assert np.all(np.diff(p) > 0)


@given(st.floats(-30, 30))
def test_probit_symmetry(x):
    assert probit(-x) == pytest.approx(1.0 - probit(x), abs=1e-12)


# away from the clip band at +-8 sigma the curve is strictly monotone
@given(st.floats(-7, 7), st.floats(1e-4, 10))
def test_probit_strictly_increasing(x, dx):
    assert probit(min(x + dx, 7.5)) > probit(x)


def test_item_params_validation():
    ItemParams("q1", 1.0, 0.0)
    with pytest.raises(ValueError):
        ItemParams("q1", 0.0, 0.0)
    with pytest.raises(ValueError):
        ItemParams("q1", -1.0, 0.0)
    with pytest.raises(ValueError):
        ItemParams("q1", np.inf, 0.0)
    with pytest.raises(ValueError):
        ItemParams("", 1.0, 0.0)


def test_response_event_validation():
    item = ItemParams("q1", 1.0, 0.0)
    ResponseEvent(item, 1, step_index=1)
    with pytest.raises(ValueError):
        ResponseEvent(item, 2, step_index=1)
    with pytest.raises(ValueError):
        ResponseEvent(item, 1, step_index=0)
    with pytest.raises(ValueError):
        ResponseEvent(item, 1, step_index=1, timestamp=-1.0)


def test_response_probability_examples():
    def response_probability(theta, item):
        return predict_next(ProficiencyEstimate(np.array([theta]), True, 0), item)

    assert response_probability(1.0, ItemParams("q", 1.0, 0.0)) == pytest.approx(
        PHI_1, abs=1e-10
    )
    assert response_probability(0.0, ItemParams("q", 2.0, 0.5)) == pytest.approx(
        PHI_M1, abs=1e-10
    )


def test_temporal_config_clocks():
    step = TemporalConfig(0.5, "step", 1.0)
    wall = TemporalConfig(0.5, "wall", 60.0)
    assert step.event_time(3.0, 120.0) == 3.0
    assert wall.event_time(3.0, 120.0) == 2.0
    np.testing.assert_array_equal(
        wall.event_time(np.array([1.0, 2.0]), np.array([60.0, 150.0])), [1.0, 2.5]
    )
    with pytest.raises(ValueError):
        TemporalConfig(-0.1)
    with pytest.raises(ValueError):
        TemporalConfig(0.1, "lunar")
    for seconds_per_unit in (0.0, -60.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="seconds_per_unit"):
            TemporalConfig(0.1, "wall", seconds_per_unit)


def test_effective_discrimination_basics():
    assert effective_discriminations(np.array([1.3]), np.array([0.0]), 2.0)[0] == 1.3
    assert effective_discriminations(np.array([1.3]), np.array([9.0]), 0.0)[0] == 1.3
    got = effective_discriminations(np.array([1.0]), np.array([3.0]), 1.0)[0]
    assert got == pytest.approx(0.5, abs=1e-15)


@given(
    st.floats(0.05, 5.0),
    st.floats(1e-4, 10.0),
    st.floats(0.0, 50.0),
    st.floats(1e-3, 20.0),
)
def test_effective_discrimination_bounds_and_decay(alpha, nu2, elapsed, delta):
    a1, a2 = effective_discriminations(np.full(2, alpha), np.array([elapsed, elapsed + delta]),
                                       nu2)
    assert 0.0 < a1 <= alpha
    assert a2 < a1


def test_effective_discriminations_matches_scalar():
    rng = np.random.default_rng(0)
    alphas = rng.uniform(0.2, 3.0, size=(4, 5))
    elapsed = rng.uniform(0.0, 20.0, size=(4, 5))
    nu2 = 0.7
    got = effective_discriminations(alphas, elapsed, nu2)
    for i in range(4):
        for j in range(5):
            a = float(alphas[i, j])
            want = a / math.sqrt(1.0 + a * a * nu2 * float(elapsed[i, j]))
            assert got[i, j] == pytest.approx(want, rel=1e-15)


def test_effective_discriminations_static_returns_input_array():
    alphas = np.array([[0.5, 1.5]])
    assert effective_discriminations(alphas, np.array([[3.0, 9.0]]), 0.0) is alphas


def test_gaussian_probit_integral_trivial_cases():
    assert gaussian_probit_integral(1.7, 0.3, 0.3, 2.0) == pytest.approx(0.5, abs=1e-14)
    for alpha, beta, mu in [(0.8, -1.0, 0.5), (2.0, 0.0, -1.5)]:
        assert gaussian_probit_integral(alpha, beta, mu, 0.0) == pytest.approx(
            float(probit(alpha * (mu - beta))), abs=1e-14
        )
    assert gaussian_probit_integral(1.0, 0.0, 1.0, 1.0) == pytest.approx(
        INT_1011, abs=1e-10
    )


def test_bernoulli_probit_terms_match_naive_log():
    z = np.linspace(-5, 5, 41)
    for correct in (0, 1):
        r = np.full_like(z, correct)
        ll, _, d2 = bernoulli_probit_terms(z if correct else -z)
        p = probit(z)
        naive = np.where(r == 1, np.log(p), np.log1p(-p))
        np.testing.assert_allclose(ll, naive, rtol=1e-10, atol=1e-12)
        assert np.all(d2 < 0.0)


def test_bernoulli_probit_terms_extreme_arguments_stay_finite():
    z = np.array([-3000.0, -50.0, 50.0, 3000.0])
    for sign in (-1.0, 1.0):
        ll, mills, d2 = bernoulli_probit_terms(sign * z)
        assert np.all(np.isfinite(ll))
        assert np.all(np.isfinite(mills))
        assert np.all(np.isfinite(d2))
        # concave everywhere; on the satisfied side the curvature underflows
        # to -0.0, so only the sign is guaranteed at extremes
        assert np.all(d2 <= 0.0)
    ll, mills, d2 = bernoulli_probit_terms(np.array([-3.0, 0.0, 3.0]))
    assert np.all(d2 < 0.0)


def _probit_terms_oracle(zs):
    """(log Phi(zs), R(zs), -R(zs)*(zs + R(zs))) with R = phi/Phi, in mpmath.

    Past |zs| = 5 the tail goes through I = a*Mills(a) =
    int_0^inf exp(-s - s^2/(2a^2)) ds and J = a^2*(1 - I), a = |zs|, both
    free of cancellation: on the losing side R = a/I and the curvature is
    -J/I^2.
    """
    if np.isinf(zs):
        return (-np.inf, np.inf, -1.0) if zs < 0 else (0.0, 0.0, 0.0)
    x = mp.mpf(float(zs))
    if abs(x) <= 5:
        cdf = mp.ncdf(x)
        r = mp.npdf(x) / cdf
        return float(mp.log(cdf)), float(r), float(-r * (x + r))
    a = abs(x)
    i = mp.quad(lambda s: mp.exp(-s - s * s / (2 * a * a)), [0, 1, mp.inf])
    if x < 0:
        j = mp.quad(lambda s: -mp.exp(-s) * mp.expm1(-s * s / (2 * a * a)) * a * a,
                    [0, 1, mp.inf])
        return float(mp.log(mp.npdf(a) * i / a)), float(a / i), float(-j / i**2)
    q = mp.npdf(a) * i / a
    r = mp.npdf(a) / (1 - q)
    return float(mp.log1p(-q)), float(r), float(-r * (x + r))


def test_bernoulli_probit_terms_tails_match_mpmath():
    # a log grid to 1e300, plus both sides of the switch to the series at 40
    mag = np.concatenate([np.logspace(-3, 2, 16), [39.9, 40.1], np.logspace(3, 300, 28)])
    zs = np.concatenate([-mag, [0.0], mag, [-np.inf, np.inf]])
    with mp.workdps(20):
        expected = np.array([_probit_terms_oracle(v) for v in zs])
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        ll, mills, d2 = bernoulli_probit_terms(zs)
    # below the switch the log-space ratio keeps its cancellation error,
    # about eps*z^2/2 in mills and eps*z^4/2 in d2 (2e-10 at |z| = 40)
    for got, want, rtol in ((ll, expected[:, 0], 1e-13),
                            (mills, expected[:, 1], 1e-12),
                            (d2, expected[:, 2], 1e-9)):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-300)
    assert np.all((d2 >= -1.0) & (d2 <= 0.0))
    dense = np.linspace(-1e3, 1e3, 200_001)
    _, _, d2 = bernoulli_probit_terms(dense)
    assert np.all((d2 >= -1.0) & (d2 <= 0.0))


@given(st.floats(-200, 200), st.integers(0, 1))
@settings(max_examples=200)
def test_bernoulli_probit_terms_derivatives_match_fd(z, correct):
    # derivatives in z = sign * zs: d1 = sign * mills, and d2 is sign-free
    sign = 1.0 if correct else -1.0
    h = 1e-6 * max(1.0, abs(z))
    za = np.array([z - h, z, z + h])
    ll, mills, d2 = bernoulli_probit_terms(sign * za)
    d1 = sign * mills
    fd1 = (ll[2] - ll[0]) / (2 * h)
    fd2 = (d1[2] - d1[0]) / (2 * h)
    assert d1[1] == pytest.approx(fd1, rel=1e-4, abs=1e-7)
    assert d2[1] == pytest.approx(fd2, rel=1e-3, abs=1e-5)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_signed_kernel_matches_unsigned_formula_bit_for_bit():
    rng = np.random.default_rng(2024)
    # ordinary cells, cells around and past the tail switch at |zs| = 40,
    # signed zeros and the infinities
    z = np.concatenate([
        rng.normal(scale=3.0, size=5000),
        rng.uniform(-45.0, 45.0, size=2000),
        np.sign(rng.normal(size=500)) * 10.0 ** rng.uniform(1.0, 300.0, size=500),
        [0.0, -0.0, 39.999, -39.999, 40.0, -40.0, 40.001, -40.001, np.inf, -np.inf],
    ])
    correct = rng.integers(0, 2, size=z.size).astype(float)
    sign = np.where(correct > 0, 1.0, -1.0)
    ll, mills, d2 = bernoulli_probit_terms(sign * z)
    want_ll, want_d1, want_d2 = unsigned_probit_terms(z, correct)
    _assert_same_bits(ll, want_ll)
    _assert_same_bits(sign * mills, want_d1)
    _assert_same_bits(d2, want_d2)
    # a batch without tail cells takes the kernel's other branch
    inner = np.abs(z) <= 40.0
    ll, mills, d2 = bernoulli_probit_terms(sign[inner] * z[inner])
    want_ll, want_d1, want_d2 = unsigned_probit_terms(z[inner], correct[inner])
    _assert_same_bits(ll, want_ll)
    _assert_same_bits(sign[inner] * mills, want_d1)
    _assert_same_bits(d2, want_d2)


def _history(events):
    item = ItemParams("q", 1.0, 0.0)
    return [
        ResponseEvent(item, r, step_index=i + 1) for i, r in enumerate(events)
    ]


def test_scalar_log_posterior_single_event_example():
    # one correct response on a unit item, static clock, precision weight 0.5:
    # at theta=0 every prior term vanishes and the value is log(1/2)
    out = approx_log_posterior_scalar(0.0, _history([1]), 2.0, STATIC, 0.5)
    assert out.value == pytest.approx(np.log(0.5), abs=1e-12)


def test_scalar_log_posterior_rejects_bad_history():
    with pytest.raises(ValueError):
        approx_log_posterior_scalar(0.0, [], 1.0, STATIC, 1.0)
    with pytest.raises(ValueError):
        # event at step 5 lies after now=2
        item = ItemParams("q", 1.0, 0.0)
        ev = ResponseEvent(item, 1, step_index=5)
        approx_log_posterior_scalar(0.0, [ev], 2.0, STATIC, 1.0)


def test_scalar_log_posterior_gradient_spot_check():
    lam = 1.0
    temporal = TemporalConfig(0.3)
    hist = _history([1, 0, 1, 1, 0, 1])
    h = 1e-5
    for theta in (-1.2, 0.0, 0.8):
        out = approx_log_posterior_scalar(theta, hist, 7.0, temporal, lam)
        vp = approx_log_posterior_scalar(theta + h, hist, 7.0, temporal, lam)
        vm = approx_log_posterior_scalar(theta - h, hist, 7.0, temporal, lam)
        assert out.gradient == pytest.approx((vp.value - vm.value) / (2 * h), rel=1e-6)
        assert out.curvature == pytest.approx(
            (vp.gradient - vm.gradient) / (2 * h), rel=1e-4
        )
        assert out.curvature < 0.0


def test_vector_log_posterior_unknown_concept_raises():
    graph = chain_graph(3)
    prior = build_prior(graph, 1.0, 0.5)
    item = ItemParams("q", 1.0, 0.0, concept_id="nope")
    ev = ResponseEvent(item, 1, step_index=1)
    with pytest.raises(KeyError):
        approx_log_posterior_vector(np.zeros(3), [ev], 2.0, STATIC, prior)


def test_vector_log_posterior_shape_validation():
    prior = build_prior(chain_graph(3), 1.0, 0.5)
    item = ItemParams("q", 1.0, 0.0, concept_id="c01")
    ev = ResponseEvent(item, 1, step_index=1)
    with pytest.raises(ValueError):
        approx_log_posterior_vector(np.zeros(2), [ev], 2.0, STATIC, prior)


def test_vector_log_posterior_reduces_to_scalar_on_one_concept():
    graph = chain_graph(1)
    prior = build_prior(graph, 1.0, 0.0)
    item = ItemParams("q", 1.4, -0.3, concept_id="c01")
    hist = [ResponseEvent(item, r, step_index=i + 1) for i, r in enumerate([1, 1, 0])]
    temporal = TemporalConfig(0.2)
    for theta in (-0.7, 0.4):
        vec = approx_log_posterior_vector(np.array([theta]), hist, 4.0, temporal, prior)
        sca = approx_log_posterior_scalar(theta, hist, 4.0, temporal, 1.0)
        assert vec.value == pytest.approx(sca.value, rel=1e-12, abs=1e-12)
        assert vec.gradient[0] == pytest.approx(sca.gradient, rel=1e-12, abs=1e-12)
        assert vec.hessian[0, 0] == pytest.approx(sca.curvature, rel=1e-12, abs=1e-12)


def test_drift_check_refuses_only_an_overflowing_product():
    check_drift_finite(0.0, 1e200, 1e300)  # nu2 = 0 never forms the product
    check_drift_finite(1e300, 2.0, 100.0)
    check_drift_finite(np.float64(1e300), np.float64(2.0), np.float64(100.0))
    big = np.finfo(float).max
    for nu2, alpha, elapsed in ((big, 1.0, 2.0), (1e300, 1e5, 1.0), (1.0, 1e155, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"nu2={nu2} is too large")):
            check_drift_finite(nu2, alpha, elapsed)


def test_estimate_history_checks_the_drift_once_before_solving():
    alphas, betas = np.array([1.5, 0.8, 2.0]), np.array([0.0, -0.5, 0.3])
    correct, times = np.array([1.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0])
    concept = np.zeros(3, dtype=np.intp)
    with pytest.raises(ValueError, match=re.escape("nu2=1e+308 is too large")):
        estimate_history(alphas, betas, correct, times, 4.0, 1e308, np.array([[2.0]]), concept)
    estimate = estimate_history(alphas, betas, correct, times, 4.0, 1e300, np.array([[2.0]]),
                                concept)
    assert estimate.converged and np.isfinite(estimate.theta).all()
