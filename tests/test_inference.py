"""MAP solver correctness against in-test oracles.

The one-correct-response fixture (alpha=1, beta=0, lam=0.5, no drift) has its
maximizer at the root of mills(theta) = theta; golden-section search on the
exact objective, run below as an independent oracle, gives
0.506054468989180763.  Batched lockstep solves are checked row for row against
the reference objectives `approx_log_posterior_*`: the reference gradient
vanishes at the returned point and scipy's BFGS on the negated reference lands
on the same point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ogive.concept_graph import ConceptGraph, build_prior, chain_graph
from ogive.inference import (
    DEFAULT_SOLVER,
    ProficiencyEstimate,
    SolverConfig,
    batched_vector_map,
    map_estimate_scalar,
    map_estimate_vector,
    predict_next,
)
from ogive.irt_core import (
    STATIC,
    ItemParams,
    ResponseEvent,
    ScalarPriorConfig,
    TemporalConfig,
    approx_log_posterior_scalar,
    approx_log_posterior_vector,
    probit,
)

ONE_CORRECT_ROOT = 0.506054468989180763
PHI_M2 = 0.0227501319481792072002826


def golden_section_max(f, lo, hi, tol=1e-12):
    """Independent 1-D maximizer; no derivatives, no Newton machinery."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def scalar_events(pairs, start_step=1):
    """[(alpha, beta, correct), ...] -> history on a single concept."""
    return [
        ResponseEvent(ItemParams(f"q{i}", a, b), r, step_index=start_step + i)
        for i, (a, b, r) in enumerate(pairs)
    ]


def test_solver_config_validation():
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gradient_tolerance must be finite"):
            SolverConfig(gradient_tolerance=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)


def test_empty_history_returns_prior_mean():
    prior = ScalarPriorConfig(mean=0.3, variance=0.5)
    est = map_estimate_scalar([], now=1.0, temporal=STATIC, prior=prior)
    assert est.theta[0] == 0.3
    assert est.converged and est.iterations == 0

    vprior = build_prior(chain_graph(3), lam=1.0, gamma=0.5)
    vest = map_estimate_vector([], now=1.0, temporal=STATIC, prior=vprior)
    np.testing.assert_array_equal(vest.theta, np.zeros(3))
    assert vest.concept_ids == vprior.graph.concepts


def test_one_correct_response_matches_golden_section_oracle():
    history = scalar_events([(1.0, 0.0, 1)])
    prior = ScalarPriorConfig.from_precision_weight(0.5)

    def objective(theta):
        return approx_log_posterior_scalar(theta, history, 2.0, STATIC, prior).value

    # float64 golden section resolves a smooth maximum to about sqrt(eps)
    oracle = golden_section_max(objective, -2.0, 2.0)
    assert oracle == pytest.approx(ONE_CORRECT_ROOT, abs=5e-8)

    est = map_estimate_scalar(history, now=2.0, temporal=STATIC, prior=prior)
    assert est.converged
    assert est.theta[0] == pytest.approx(ONE_CORRECT_ROOT, abs=1e-8)
    # at the optimum the inverse Mills ratio equals theta itself
    root = est.theta[0]
    mills = math.exp(-0.5 * root * root) / math.sqrt(2 * math.pi) / probit(root)
    assert mills == pytest.approx(root, abs=1e-7)


def test_many_responses_recover_static_truth():
    rng = np.random.default_rng(42)
    theta_true = 1.2
    pairs = []
    for _ in range(1000):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-2.0, 2.0)
        r = int(rng.random() < probit(a * (theta_true - b)))
        pairs.append((a, b, r))
    history = scalar_events(pairs)
    prior = ScalarPriorConfig.from_precision_weight(1.0)
    est = map_estimate_scalar(history, now=1001.0, temporal=STATIC, prior=prior)
    assert est.converged
    assert abs(est.theta[0] - theta_true) <= 0.1


def test_converged_implies_gradient_below_tolerance():
    rng = np.random.default_rng(3)
    pairs = [
        (rng.uniform(0.5, 2.0), rng.uniform(-2, 2), int(rng.random() < 0.6))
        for _ in range(40)
    ]
    history = scalar_events(pairs)
    temporal, prior = TemporalConfig(0.05), ScalarPriorConfig()
    est = map_estimate_scalar(history, now=41.0, temporal=temporal, prior=prior)
    assert est.converged
    reference = approx_log_posterior_scalar(est.theta[0], history, 41.0, temporal, prior)
    assert abs(reference.gradient) <= DEFAULT_SOLVER.gradient_tolerance


def test_max_iterations_zero_returns_initial_point():
    history = scalar_events([(1.0, 0.0, 1)])
    solver = SolverConfig(max_iterations=0)
    est = map_estimate_scalar(
        history, now=2.0, temporal=STATIC, prior=ScalarPriorConfig()
    )
    est0 = map_estimate_scalar(
        history, now=2.0, temporal=STATIC, prior=ScalarPriorConfig(), solver=solver
    )
    assert est0.theta[0] == 0.0
    assert not est0.converged
    assert est0.iterations == 0
    assert est.converged  # the unrestricted solver does finish


@pytest.mark.parametrize("history", [[], scalar_events([(1.0, 0.0, 1)])])
def test_non_finite_now_rejected(history):
    vprior = build_prior(ConceptGraph(("all",)), lam=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="now must be finite"):
        map_estimate_scalar(history, float("nan"), STATIC, ScalarPriorConfig())
    with pytest.raises(ValueError, match="now must be finite"):
        map_estimate_vector(history, float("nan"), STATIC, vprior)


def test_initialization_independence():
    rng = np.random.default_rng(11)
    pairs = np.array([
        (rng.uniform(0.5, 2.0), rng.uniform(-2, 2), int(rng.random() < 0.5))
        for _ in range(30)
    ])
    alphas, betas, correct = pairs.T
    # the default scalar prior, lam = 1, as a one-concept problem started from each x0
    starts = np.array([[-3.0], [0.0], [3.0]])
    rows = np.ones((len(starts), 1))
    theta, converged, _ = batched_vector_map(
        starts, rows * alphas, rows * betas, rows * correct,
        np.zeros((len(starts), len(pairs)), dtype=np.intp),
        np.ones((len(starts), len(pairs)), dtype=bool), np.array([[2.0]]),
    )
    assert converged.all()
    spread = theta.max() - theta.min()
    assert spread <= 10 * DEFAULT_SOLVER.gradient_tolerance


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_monotone_response_effect(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    pairs = [
        (rng.uniform(0.3, 2.5), rng.uniform(-2, 2), int(rng.random() < 0.5))
        for _ in range(n)
    ]
    base = scalar_events(pairs)
    prior = ScalarPriorConfig()
    temporal = TemporalConfig(float(rng.uniform(0, 0.3)))
    now = float(n + 2)
    extra_item = ItemParams("extra", rng.uniform(0.3, 2.5), rng.uniform(-2, 2))
    theta_base = map_estimate_scalar(base, now, temporal, prior).theta[0]
    up = base + [ResponseEvent(extra_item, 1, step_index=n + 1)]
    down = base + [ResponseEvent(extra_item, 0, step_index=n + 1)]
    theta_up = map_estimate_scalar(up, now, temporal, prior).theta[0]
    theta_down = map_estimate_scalar(down, now, temporal, prior).theta[0]
    assert theta_up >= theta_base - 1e-7
    assert theta_down <= theta_base + 1e-7


def test_temporal_discounting_moves_old_evidence_less():
    prior = ScalarPriorConfig()
    temporal = TemporalConfig(0.1)
    item = ItemParams("q", 1.5, 0.5)
    recent = [ResponseEvent(item, 1, step_index=100)]
    old = [ResponseEvent(item, 1, step_index=1)]
    t_recent = map_estimate_scalar(recent, 101.0, temporal, prior).theta[0]
    t_old = map_estimate_scalar(old, 101.0, temporal, prior).theta[0]
    assert t_recent > t_old > 0.0
    # no drift: placement is irrelevant
    s_recent = map_estimate_scalar(recent, 101.0, STATIC, prior).theta[0]
    s_old = map_estimate_scalar(old, 101.0, STATIC, prior).theta[0]
    assert s_recent == pytest.approx(s_old, abs=1e-10)


def test_prior_coupling_pulls_unobserved_neighbors():
    graph = chain_graph(3)
    prior = build_prior(graph, lam=1.0, gamma=0.5)
    item = ItemParams("q", 1.5, 0.0, concept_id="c02")
    history = [ResponseEvent(item, 1, step_index=i + 1) for i in range(6)]
    est = map_estimate_vector(history, 7.0, STATIC, prior)
    assert est.converged
    mid = est.coordinate("c02")
    assert mid > 0.0
    assert 0.0 < est.coordinate("c01") < mid
    assert 0.0 < est.coordinate("c03") < mid
    # without coupling the unobserved coordinates stay at the prior mean
    factorial = build_prior(graph, lam=1.0, gamma=0.0)
    est0 = map_estimate_vector(history, 7.0, STATIC, factorial)
    assert est0.coordinate("c01") == pytest.approx(0.0, abs=1e-9)
    assert est0.coordinate("c03") == pytest.approx(0.0, abs=1e-9)


def test_coordinate_lookup_errors():
    est = ProficiencyEstimate(
        theta=np.array([1.0, -1.0]), converged=True, iterations=0,
        concept_ids=("A", "B"),
    )
    assert est.coordinate("B") == -1.0
    with pytest.raises(KeyError):
        est.coordinate("C")
    scalar = ProficiencyEstimate(
        theta=np.array([0.7]), converged=True, iterations=0,
    )
    assert scalar.coordinate("anything") == 0.7


def test_predict_next_examples():
    scalar = ProficiencyEstimate(
        theta=np.array([1.3]), converged=True, iterations=0,
    )
    assert predict_next(scalar, ItemParams("q", 2.0, 1.3)) == pytest.approx(0.5)

    empty = map_estimate_scalar([], 1.0, STATIC, ScalarPriorConfig())
    assert predict_next(empty, ItemParams("q", 1.0, 0.0)) == pytest.approx(0.5)

    vector = ProficiencyEstimate(
        theta=np.array([1.0, -1.0]), converged=True, iterations=0,
        concept_ids=("A", "B"),
    )
    item_b = ItemParams("q", 2.0, 0.0, concept_id="B")
    assert predict_next(vector, item_b) == pytest.approx(PHI_M2, abs=1e-12)
    with pytest.raises(KeyError):
        predict_next(vector, ItemParams("q", 1.0, 0.0, concept_id="Z"))


def _random_padded_problems(rng, n_students, max_events):
    lengths = rng.integers(0, max_events + 1, size=n_students)
    t = max(int(lengths.max()), 1)
    a = np.zeros((n_students, t))
    beta = np.zeros((n_students, t))
    correct = np.zeros((n_students, t))
    mask = np.zeros((n_students, t), dtype=bool)
    for s, n in enumerate(lengths):
        a[s, :n] = rng.uniform(0.3, 2.5, size=n)
        beta[s, :n] = rng.uniform(-2, 2, size=n)
        correct[s, :n] = rng.integers(0, 2, size=n)
        mask[s, :n] = True
    return a, beta, correct, mask, lengths


def assert_reference_optimum(objective, theta):
    """theta maximizes `objective` (x -> (value, gradient)), checked independently.

    The reference gradient vanishes there, and scipy's BFGS on the negated
    objective, started away from theta, lands on the same point.
    """
    _, grad = objective(theta)
    assert np.max(np.abs(grad)) <= 1e-6
    result = minimize(
        lambda x: tuple(-np.asarray(v) for v in objective(x)), np.zeros_like(theta) + 0.5,
        jac=True, method="BFGS", options={"gtol": 1e-11},
    )
    np.testing.assert_allclose(result.x, theta, atol=1e-6)


def scalar_reference(history, now, temporal, prior):
    def objective(x):
        out = approx_log_posterior_scalar(float(x[0]), history, now, temporal, prior)
        return out.value, np.array([out.gradient])

    return objective


def vector_reference(history, now, temporal, prior):
    def objective(x):
        out = approx_log_posterior_vector(x, history, now, temporal, prior)
        return out.value, out.gradient

    return objective


def test_batched_scalar_matches_single_history_solver():
    rng = np.random.default_rng(5)
    a, beta, correct, mask, lengths = _random_padded_problems(rng, 40, 30)
    lam, mean = 0.8, 0.3
    theta, converged, iterations = batched_vector_map(
        np.full((40, 1), mean), a, beta, correct, np.zeros(a.shape, dtype=np.intp), mask,
        np.array([[2.0 * lam]]), prior_mean=mean,
    )
    assert theta.shape == (40, 1)
    assert converged.all()
    prior = ScalarPriorConfig.from_precision_weight(lam, mean)
    for s in range(40):
        n = int(lengths[s])
        if n == 0:
            assert theta[s, 0] == mean and iterations[s] == 0
            continue
        history = scalar_events([(a[s, i], beta[s, i], int(correct[s, i])) for i in range(n)])
        assert_reference_optimum(scalar_reference(history, float(n + 1), STATIC, prior), theta[s])
        ref = map_estimate_scalar(history, float(n + 1), STATIC, prior)
        assert theta[s, 0] == pytest.approx(ref.theta[0], abs=1e-7)


def test_batched_scalar_warm_start_lands_on_same_optimum():
    rng = np.random.default_rng(6)
    a, beta, correct, mask, lengths = _random_padded_problems(rng, 25, 20)
    cidx = np.zeros(a.shape, dtype=np.intp)
    precision = np.array([[2.0]])

    def solve(theta0):
        return batched_vector_map(theta0, a, beta, correct, cidx, mask, precision)

    cold, conv_c, _ = solve(np.zeros((25, 1)))
    warm, conv_w, iters = solve(cold + rng.normal(scale=0.5, size=(25, 1)))
    assert conv_c.all() and conv_w.all()
    np.testing.assert_allclose(warm, cold, atol=1e-7)
    prior = ScalarPriorConfig.from_precision_weight(1.0)
    for s in np.flatnonzero(lengths):
        n = int(lengths[s])
        history = scalar_events([(a[s, i], beta[s, i], int(correct[s, i])) for i in range(n)])
        _, grad = scalar_reference(history, float(n + 1), STATIC, prior)(warm[s])
        assert abs(grad[0]) <= 1e-6
    # restart at the solution itself: nothing to do
    again, conv_a, iters_a = solve(cold)
    assert conv_a.all()
    assert iters_a.max() <= 1


def _vector_history(s, a, beta, correct, cidx, mask, names):
    return [
        ResponseEvent(
            ItemParams(f"q{s}_{i}", a[s, i], beta[s, i], concept_id=names[cidx[s, i]]),
            int(correct[s, i]), step_index=i + 1,
        )
        for i in range(a.shape[1]) if mask[s, i]
    ]


def test_batched_vector_matches_single_history_solver():
    rng = np.random.default_rng(9)
    graph = chain_graph(4)
    prior = build_prior(graph, lam=1.0, gamma=0.5)
    n_students, t = 15, 12
    a = rng.uniform(0.3, 2.5, size=(n_students, t))
    beta = rng.uniform(-2, 2, size=(n_students, t))
    correct = rng.integers(0, 2, size=(n_students, t)).astype(float)
    cidx = rng.integers(0, 4, size=(n_students, t))
    mask = np.ones((n_students, t), dtype=bool)
    # knock out a ragged tail on a few rows; padded cells carry a_eff == 0
    for s in (0, 3, 7):
        mask[s, 8:] = False
        a[s, 8:] = 0.0
        cidx[s, 8:] = 0
    theta, converged, _ = batched_vector_map(
        np.zeros((n_students, 4)), a, beta, correct, cidx, mask, prior.precision
    )
    assert converged.all()
    for s in range(n_students):
        history = _vector_history(s, a, beta, correct, cidx, mask, graph.concepts)
        assert_reference_optimum(vector_reference(history, float(t + 1), STATIC, prior), theta[s])
        ref = map_estimate_vector(history, float(t + 1), STATIC, prior)
        assert ref.converged
        np.testing.assert_allclose(theta[s], ref.theta, atol=1e-7)


def test_batched_vector_warm_start_lands_on_same_optimum():
    rng = np.random.default_rng(13)
    graph = chain_graph(3)
    prior = build_prior(graph, lam=0.7, gamma=0.4)
    n_students, t = 10, 8
    a = rng.uniform(0.3, 2.5, size=(n_students, t))
    beta = rng.uniform(-2, 2, size=(n_students, t))
    correct = rng.integers(0, 2, size=(n_students, t)).astype(float)
    cidx = rng.integers(0, 3, size=(n_students, t))
    mask = np.ones((n_students, t), dtype=bool)
    cold, conv_c, _ = batched_vector_map(
        np.zeros((n_students, 3)), a, beta, correct, cidx, mask, prior.precision
    )
    warm, conv_w, _ = batched_vector_map(
        cold + rng.normal(scale=0.5, size=cold.shape),
        a, beta, correct, cidx, mask, prior.precision,
    )
    assert conv_c.all() and conv_w.all()
    np.testing.assert_allclose(warm, cold, atol=1e-7)
    for s in range(n_students):
        history = _vector_history(s, a, beta, correct, cidx, mask, graph.concepts)
        _, grad = vector_reference(history, float(t + 1), STATIC, prior)(warm[s])
        assert np.max(np.abs(grad)) <= 1e-6
