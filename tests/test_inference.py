"""MAP solver correctness against in-test oracles.

The one-correct-response fixture (alpha=1, beta=0, lam=0.5, no drift) has its
maximizer at the root of mills(theta) = theta; golden-section search on the
exact objective, run below as an independent oracle, gives
0.506054468989180763.  Batched lockstep solves are checked row for row against
the reference objectives `approx_log_posterior_*` in `reference_objectives`:
the reference gradient vanishes at the returned point and scipy's BFGS on the
negated reference lands on the same point.  Single-history estimates go
through `estimate_history`, the batched solve at S = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ogive import inference
from ogive.concept_graph import ConceptGraph, build_prior, chain_graph
from ogive.inference import (
    DEFAULT_SOLVER,
    ProficiencyEstimate,
    SolverConfig,
    StackedLogPosterior,
    batched_vector_map,
    count_rows,
    estimate_history,
    map_estimate_vector,
    newton_map,
    predict_next,
)
from ogive.irt_core import (
    STATIC,
    ItemParams,
    ResponseEvent,
    TemporalConfig,
    effective_discriminations,
    probit,
)
from reference_objectives import approx_log_posterior_scalar, approx_log_posterior_vector

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


def scalar_estimate(history, now, temporal, lam=1.0, solver=DEFAULT_SOLVER):
    """`estimate_history` on a one-concept event history, prior weight lam."""
    cols = np.array([(ev.item.discrimination, ev.item.difficulty, ev.correct)
                     for ev in history]).reshape(-1, 3)
    steps = np.array([ev.step_index for ev in history], dtype=float)
    stamps = np.array([ev.timestamp for ev in history], dtype=float)
    return estimate_history(
        cols[:, 0], cols[:, 1], cols[:, 2], temporal.event_time(steps, stamps), now,
        temporal.drift_variance, np.array([[2.0 * lam]]),
        np.zeros(len(history), dtype=np.intp), solver,
    )


def test_solver_config_validation():
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gradient_tolerance must be finite"):
            SolverConfig(gradient_tolerance=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)


def test_empty_history_returns_prior_mean():
    est = scalar_estimate([], 1.0, STATIC)
    np.testing.assert_array_equal(est.theta, [0.0])
    assert est.converged and est.iterations == 0 and est.concept_ids is None

    vprior = build_prior(chain_graph(3), lam=1.0, gamma=0.5)
    vest = map_estimate_vector([], now=1.0, temporal=STATIC, prior=vprior)
    np.testing.assert_array_equal(vest.theta, np.zeros(3))
    assert vest.concept_ids == vprior.graph.concepts


def test_one_correct_response_matches_golden_section_oracle():
    history = scalar_events([(1.0, 0.0, 1)])

    def objective(theta):
        return approx_log_posterior_scalar(theta, history, 2.0, STATIC, 0.5).value

    # float64 golden section resolves a smooth maximum to about sqrt(eps)
    oracle = golden_section_max(objective, -2.0, 2.0)
    assert oracle == pytest.approx(ONE_CORRECT_ROOT, abs=5e-8)

    est = scalar_estimate(history, 2.0, STATIC, lam=0.5)
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
    est = scalar_estimate(history, 1001.0, STATIC)
    assert est.converged
    assert abs(est.theta[0] - theta_true) <= 0.1


def test_converged_implies_gradient_below_tolerance():
    rng = np.random.default_rng(3)
    pairs = [
        (rng.uniform(0.5, 2.0), rng.uniform(-2, 2), int(rng.random() < 0.6))
        for _ in range(40)
    ]
    history = scalar_events(pairs)
    temporal = TemporalConfig(0.05)
    est = scalar_estimate(history, 41.0, temporal)
    assert est.converged
    reference = approx_log_posterior_scalar(est.theta[0], history, 41.0, temporal, 1.0)
    assert abs(reference.gradient) <= DEFAULT_SOLVER.gradient_tolerance


def test_max_iterations_zero_returns_initial_point():
    history = scalar_events([(1.0, 0.0, 1)])
    solver = SolverConfig(max_iterations=0)
    est = scalar_estimate(history, 2.0, STATIC)
    est0 = scalar_estimate(history, 2.0, STATIC, solver=solver)
    assert est0.theta[0] == 0.0
    assert not est0.converged
    assert est0.iterations == 0
    assert est.converged  # the unrestricted solver does finish


@pytest.mark.parametrize("history", [[], scalar_events([(1.0, 0.0, 1)])])
def test_non_finite_now_rejected(history):
    vprior = build_prior(ConceptGraph(("all",)), lam=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="now must be finite"):
        scalar_estimate(history, float("nan"), STATIC)
    with pytest.raises(ValueError, match="now must be finite"):
        map_estimate_vector(history, float("nan"), STATIC, vprior)


def test_event_after_now_rejected():
    history = scalar_events([(1.0, 0.0, 1), (1.0, 0.0, 0)])
    with pytest.raises(ValueError, match="event 1 is after now=1.5"):
        scalar_estimate(history, 1.5, STATIC)


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
        np.zeros((len(starts), len(pairs)), dtype=np.intp), np.ones((len(starts), len(pairs))),
        np.array([[2.0]]),
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
    temporal = TemporalConfig(float(rng.uniform(0, 0.3)))
    now = float(n + 2)
    extra_item = ItemParams("extra", rng.uniform(0.3, 2.5), rng.uniform(-2, 2))
    theta_base = scalar_estimate(base, now, temporal).theta[0]
    up = base + [ResponseEvent(extra_item, 1, step_index=n + 1)]
    down = base + [ResponseEvent(extra_item, 0, step_index=n + 1)]
    theta_up = scalar_estimate(up, now, temporal).theta[0]
    theta_down = scalar_estimate(down, now, temporal).theta[0]
    assert theta_up >= theta_base - 1e-7
    assert theta_down <= theta_base + 1e-7


def test_temporal_discounting_moves_old_evidence_less():
    temporal = TemporalConfig(0.1)
    item = ItemParams("q", 1.5, 0.5)
    recent = [ResponseEvent(item, 1, step_index=100)]
    old = [ResponseEvent(item, 1, step_index=1)]
    t_recent = scalar_estimate(recent, 101.0, temporal).theta[0]
    t_old = scalar_estimate(old, 101.0, temporal).theta[0]
    assert t_recent > t_old > 0.0
    # no drift: placement is irrelevant
    s_recent = scalar_estimate(recent, 101.0, STATIC).theta[0]
    s_old = scalar_estimate(old, 101.0, STATIC).theta[0]
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

    empty = scalar_estimate([], 1.0, STATIC)
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


def counted_map(theta0, a, beta, correct, cidx, mask, precision, prior_mean=0.0, **kw):
    """`newton_map` from a cold start on one event per cell, counted where mask is set.

    Cells outside the mask are padding, counted 0 times.
    """
    objective = StackedLogPosterior(a, beta, correct, cidx, mask.astype(float), precision,
                                    prior_mean)
    return newton_map(objective, theta0, **kw)


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


def scalar_reference(history, now, temporal, lam, mean=0.0):
    def objective(x):
        out = approx_log_posterior_scalar(float(x[0]), history, now, temporal, lam, mean)
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
    theta, converged, iterations = counted_map(
        np.full((40, 1), mean), a, beta, correct, np.zeros(a.shape, dtype=np.intp), mask,
        np.array([[2.0 * lam]]), mean,
    )
    assert theta.shape == (40, 1)
    assert converged.all()
    for s in range(40):
        n = int(lengths[s])
        if n == 0:
            assert theta[s, 0] == mean and iterations[s] == 0
            continue
        history = scalar_events([(a[s, i], beta[s, i], int(correct[s, i])) for i in range(n)])
        assert_reference_optimum(scalar_reference(history, float(n + 1), STATIC, lam, mean),
                                 theta[s])
        # the single-history core has a zero prior mean: shift theta and beta by it
        shifted = scalar_events([(a[s, i], beta[s, i] - mean, int(correct[s, i]))
                                 for i in range(n)])
        ref = scalar_estimate(shifted, float(n + 1), STATIC, lam=lam)
        assert theta[s, 0] == pytest.approx(ref.theta[0] + mean, abs=1e-7)


def test_batched_scalar_warm_start_lands_on_same_optimum():
    rng = np.random.default_rng(6)
    a, beta, correct, mask, lengths = _random_padded_problems(rng, 25, 20)
    cidx = np.zeros(a.shape, dtype=np.intp)
    precision = np.array([[2.0]])

    def solve(theta0):
        return counted_map(theta0, a, beta, correct, cidx, mask, precision)

    cold, conv_c, _ = solve(np.zeros((25, 1)))
    warm, conv_w, iters = solve(cold + rng.normal(scale=0.5, size=(25, 1)))
    assert conv_c.all() and conv_w.all()
    np.testing.assert_allclose(warm, cold, atol=1e-7)
    for s in np.flatnonzero(lengths):
        n = int(lengths[s])
        history = scalar_events([(a[s, i], beta[s, i], int(correct[s, i])) for i in range(n)])
        _, grad = scalar_reference(history, float(n + 1), STATIC, 1.0)(warm[s])
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
    theta, converged, _ = counted_map(
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
        np.zeros((n_students, 3)), a, beta, correct, cidx, mask.astype(float), prior.precision
    )
    warm, conv_w, _ = batched_vector_map(
        cold + rng.normal(scale=0.5, size=cold.shape),
        a, beta, correct, cidx, mask.astype(float), prior.precision,
    )
    assert conv_c.all() and conv_w.all()
    np.testing.assert_allclose(warm, cold, atol=1e-7)
    for s in range(n_students):
        history = _vector_history(s, a, beta, correct, cidx, mask, graph.concepts)
        _, grad = vector_reference(history, float(t + 1), STATIC, prior)(warm[s])
        assert np.max(np.abs(grad)) <= 1e-6


def _diamond_graph():
    """a -> b, a -> c, b -> d, c -> d: the smallest skeleton with a cycle."""
    return ConceptGraph(("a", "b", "c", "d"),
                        (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))


RETIREMENT_PRIORS = {
    "one_concept": np.array([[1.6]]),
    "diagonal": build_prior(chain_graph(3), lam=0.8, gamma=0.0).precision,
    "chain": build_prior(chain_graph(5), lam=0.6, gamma=0.7).precision,
    "diamond": build_prior(_diamond_graph(), lam=0.9, gamma=0.5).precision,
}


def _ragged_batch(rng, n_concepts, n_students=24, max_events=30):
    """Ragged rows with signed a_eff, as calibration's item blocks have them."""
    a, beta, correct, mask, _ = _random_padded_problems(rng, n_students, max_events)
    a *= np.where(rng.random(a.shape) < 0.2, -1.0, 1.0)
    cidx = np.where(mask, rng.integers(0, n_concepts, size=a.shape), 0)
    theta0 = rng.normal(scale=2.0, size=(n_students, n_concepts))
    return theta0, a, beta, correct, cidx, mask


def _assert_rows_equal_single_solves(theta0, a, beta, correct, cidx, mask, precision, **kw):
    """Each row of the batched solve equals the solve of that row alone, bit for bit."""
    batch = counted_map(theta0, a, beta, correct, cidx, mask, precision, **kw)
    for s in range(len(theta0)):
        rows = [s]
        alone = counted_map(theta0[rows], a[rows], beta[rows], correct[rows],
                            cidx[rows], mask[rows], precision, **kw)
        for got, want in zip(batch, alone):
            np.testing.assert_array_equal(got[s], want[0])
    return batch


@pytest.mark.parametrize("prior", sorted(RETIREMENT_PRIORS))
def test_retiring_rows_leaves_every_row_bit_identical(prior):
    # rows converge after different iteration counts and leave the lockstep
    # solve one by one; each must still equal its own solve alone
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(31)
    theta0, a, beta, correct, cidx, mask = _ragged_batch(rng, len(precision))
    theta, converged, iterations = _assert_rows_equal_single_solves(
        theta0, a, beta, correct, cidx, mask, precision, prior_mean=0.25)
    assert converged.all()
    assert len(np.unique(iterations)) > 1
    _assert_rows_equal_single_solves(theta0, np.where(mask, a, 0.3), beta, correct, cidx,
                                     np.ones(mask.shape, dtype=bool), precision)


@pytest.mark.parametrize("prior", sorted(RETIREMENT_PRIORS))
def test_last_live_row_keeps_its_state_while_others_retire(prior):
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(32)
    theta0, a, beta, correct, cidx, mask = _ragged_batch(rng, len(precision), n_students=8)
    # warm-start every row at its optimum but row 2, which starts far out and
    # goes on alone once the others have retired
    theta0 = counted_map(theta0, a, beta, correct, cidx, mask, precision)[0]
    theta0[2] = 25.0
    mask[2, :5], a[2, :5] = True, 1.0
    others = np.arange(8) != 2
    _, converged, iterations = _assert_rows_equal_single_solves(
        theta0, a, beta, correct, cidx, mask, precision,
        solver=SolverConfig(max_iterations=3))
    assert not converged[2] and iterations[2] == 3
    assert converged[others].all() and iterations[others].max() <= 1
    _, converged, iterations = _assert_rows_equal_single_solves(
        theta0, a, beta, correct, cidx, mask, precision)
    assert converged.all() and iterations[2] >= 4


@pytest.mark.parametrize("prior", ["one_concept", "diagonal", "chain", "diamond"])
def test_single_history_core_is_its_row_of_a_batch(prior):
    # estimate_history solves one history at S = 1; under every prior, one
    # concept's row sums included, it must land on the bits of the same
    # history's row in a batch
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(36)
    n_students, t, nu2 = 12, 20, 0.2
    alphas = rng.uniform(0.3, 2.5, size=(n_students, t))
    betas = rng.uniform(-2, 2, size=(n_students, t))
    correct = rng.integers(0, 2, size=(n_students, t)).astype(float)
    cidx = rng.integers(0, len(precision), size=(n_students, t))
    times = np.sort(rng.uniform(0.0, 30.0, size=(n_students, t)), axis=1)
    now = 31.0
    a_eff = effective_discriminations(alphas, now - times, nu2)
    batch = batched_vector_map(np.zeros((n_students, len(precision))), a_eff, betas, correct,
                               cidx, np.ones((n_students, t)), precision)
    assert batch[1].all()
    for s in range(n_students):
        alone = estimate_history(alphas[s], betas[s], correct[s], times[s], now, nu2,
                                 precision, cidx[s])
        _assert_same_bits(alone.theta, batch[0][s])
        assert alone.converged == batch[1][s] and alone.iterations == batch[2][s]


def test_kernel_sees_only_the_live_rows(monkeypatch):
    rng = np.random.default_rng(33)
    precision = RETIREMENT_PRIORS["chain"]
    theta0, a, beta, correct, cidx, mask = _ragged_batch(rng, len(precision), n_students=6)
    solved = counted_map(theta0, a, beta, correct, cidx, mask, precision)[0]
    theta0[0] = solved[0]  # row 0 is converged before the first step
    kernel = inference.bernoulli_probit_terms
    cells = []

    def counting(zs):
        cells.append(zs.size)
        return kernel(zs)

    monkeypatch.setattr(inference, "bernoulli_probit_terms", counting)
    theta, converged, iterations = counted_map(theta0, a, beta, correct, cidx, mask,
                                               precision)
    assert converged.all() and iterations[0] == 0
    width = a.shape[1]
    assert cells[0] == 6 * width
    assert all(n <= 5 * width for n in cells[1:])
    # every later retirement shrinks the batch further, until one row is left
    assert cells == sorted(cells, reverse=True) and cells[-1] == width


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_iter", [100, 3])
@pytest.mark.parametrize("prior", ["one_concept", "chain"])
def test_newton_map_from_supplied_terms_matches_a_cold_start(prior, max_iter):
    # the core started from the terms at theta0 takes the same steps as a cold
    # start, and hands back the terms at each row's solution, however late the
    # row retired or if it never converged
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(34)
    theta0, a, beta, correct, cidx, mask = _ragged_batch(rng, len(precision))
    assert not mask.all()
    cidx = None if len(precision) == 1 else cidx

    def rows():
        return StackedLogPosterior(a, beta, correct, cidx, mask.astype(float), precision, 0.25)

    solver = SolverConfig(max_iterations=max_iter)
    cold = counted_map(theta0, a, beta, correct, cidx, mask, precision, 0.25, solver=solver)
    terms = list(rows().terms(theta0))
    warm = newton_map(rows(), theta0, terms, solver)
    for got, want in zip(warm, cold):
        _assert_same_bits(got, want)
    theta, converged, iterations = warm
    assert len(np.unique(iterations)) > 1
    assert converged.all() == (max_iter == 100)
    fresh = rows().terms(theta)
    for got, want in zip(terms, fresh):  # the list passed in, updated in place
        _assert_same_bits(got, want)


def test_call_is_the_kernel_pass_then_the_reduction():
    precision = RETIREMENT_PRIORS["chain"]
    theta0, a, beta, correct, cidx, mask = _ragged_batch(np.random.default_rng(35),
                                                          len(precision))
    rows = StackedLogPosterior(a, beta, correct, cidx, mask.astype(float), precision, 0.25)
    terms = rows.terms(theta0)
    kept = [t.copy() for t in terms]
    for got, want in zip(rows(theta0), rows.reduce(theta0, terms)):
        _assert_same_bits(got, want)
    for got, want in zip(terms, kept):  # the reduction leaves the terms alone
        _assert_same_bits(got, want)


# -- counted cells: a static history as its distinct events with counts ------


def _counted_records(rng, n_concepts, n_students=9, n_items=6):
    """Flat records of ragged streams that repeat (item, outcome) pairs."""
    lengths = rng.integers(1, 30, size=n_students)
    group = np.repeat(np.arange(n_students), lengths)
    rng.shuffle(group)  # groups interleave in record order
    item = rng.integers(0, n_items, size=len(group))
    correct = rng.integers(0, 2, size=len(group)).astype(float)
    a = rng.uniform(0.3, 2.5, size=n_items)[item]
    beta = rng.uniform(-2, 2, size=n_items)[item]
    cidx = rng.integers(0, n_concepts, size=n_items)[item]
    return group, 2 * item + correct.astype(int), a, beta, correct, cidx


def test_count_rows_holds_each_record_in_its_cell():
    rng = np.random.default_rng(80)
    group, key, a, beta, correct, cidx = _counted_records(rng, 3)
    slot, counts, *cells = count_rows(group, 10, key, a, beta, correct, cidx)
    for column, padded in zip((a, beta, correct, cidx), cells):
        assert np.array_equal(padded[group, slot], column)
    assert np.array_equal(counts.sum(axis=1), np.bincount(group, minlength=10))
    assert not counts[9].any()  # a group without records gets an empty row
    for g in range(9):  # cells left-aligned, in order of first occurrence
        slots = slot[group == g]
        first = slots[np.r_[True, np.maximum.accumulate(slots)[:-1] < slots[1:]]]
        assert np.array_equal(first, np.arange(len(first)))
        assert np.count_nonzero(counts[g]) == len(first) == len(np.unique(key[group == g]))
    # a key unique per record gives each record its own cell, in record order
    slot, ones, *cells = count_rows(group, 10, np.arange(len(group)), a, beta)
    for g in range(10):
        assert np.array_equal(slot[group == g], np.arange(np.count_nonzero(group == g)))
    assert np.array_equal(ones, ones > 0)
    assert np.array_equal(ones.sum(axis=1), np.bincount(group, minlength=10))
    for column, padded in zip((a, beta), cells):
        assert np.array_equal(padded[group, slot], column)


@pytest.mark.parametrize("prior", ["one_concept", "chain"])
def test_counted_cells_solve_their_events(prior):
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(81)
    group, key, a, beta, correct, cidx = _counted_records(rng, len(precision))
    n = int(group.max()) + 1
    _, ones, *events = count_rows(group, n, np.arange(len(group)), a, beta, correct, cidx)
    _, counts, *cells = count_rows(group, n, key, a, beta, correct, cidx)
    assert counts.shape[1] < ones.shape[1]
    theta0 = rng.normal(size=(n, len(precision)))
    per_event = StackedLogPosterior(*events, ones, precision, 0.25)
    counted = StackedLogPosterior(*cells, counts, precision, 0.25)
    for got, want in zip(counted(theta0), per_event(theta0)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    got = newton_map(counted, theta0)
    want = newton_map(StackedLogPosterior(*events, ones, precision, 0.25), theta0)
    np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
    assert got[1].all() and want[1].all()


@pytest.mark.parametrize("max_iter", [100, 3])
@pytest.mark.parametrize("prior", ["one_concept", "chain"])
def test_newton_map_on_counts_from_supplied_terms_matches_a_cold_start(prior, max_iter):
    # padding cells may hold stale terms: any finite values of the kernel's
    # sign give the cold start's bits
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(82)
    group, key, a, beta, correct, cidx = _counted_records(rng, len(precision))
    n = int(group.max()) + 1
    _, counts, a, beta, correct, cidx = count_rows(group, n, key, a, beta, correct, cidx)
    assert not counts.all()
    theta0 = rng.normal(scale=2.0, size=(n, len(precision)))

    def rows():
        return StackedLogPosterior(a, beta, correct, cidx, counts, precision, 0.25)

    solver = SolverConfig(max_iterations=max_iter)
    cold = newton_map(rows(), theta0, solver=solver)
    terms = list(rows().terms(theta0))
    stale = counts == 0
    terms[0][stale], terms[1][stale], terms[2][stale] = -3.0, 0.5, -0.25
    warm = newton_map(rows(), theta0, terms, solver)
    for got, want in zip(warm, cold):
        _assert_same_bits(got, want)
    assert warm[1].all() == (max_iter == 100)
    fresh = rows().terms(warm[0])
    for got, want in zip(terms, fresh):
        _assert_same_bits(got[~stale], want[~stale])


@pytest.mark.parametrize("prior", ["one_concept", "chain"])
def test_counted_row_keeps_its_bits_beside_wider_rows(prior):
    # other rows decide how much padding a row carries; its bits must not see it
    precision = RETIREMENT_PRIORS[prior]
    rng = np.random.default_rng(83)
    group, key, a, beta, correct, cidx = _counted_records(rng, len(precision), n_items=40)
    n = int(group.max()) + 1
    _, counts, *cells = count_rows(group, n, key, a, beta, correct, cidx)
    theta0 = rng.normal(size=(n, len(precision)))
    batch = newton_map(StackedLogPosterior(*cells, counts, precision), theta0)
    widths = np.count_nonzero(counts, axis=1)
    assert (widths < counts.shape[1]).sum() == n - 1
    for s, width in enumerate(widths):
        alone = newton_map(StackedLogPosterior(
            *(c[s:s + 1, :width] for c in cells), counts[s:s + 1, :width], precision,
        ), theta0[s:s + 1])
        for got, want in zip(alone, batch):
            _assert_same_bits(got[0], want[s])


def test_terms_read_theta_in_any_memory_layout():
    precision = RETIREMENT_PRIORS["diamond"]
    theta0, a, beta, correct, cidx, mask = _ragged_batch(np.random.default_rng(85),
                                                          len(precision))
    rows = StackedLogPosterior(a, beta, correct, cidx, mask.astype(float), precision)
    wide = np.repeat(theta0, 2, axis=1)
    for theta in (wide[:, ::2], np.asfortranarray(theta0)):
        assert not theta.flags.c_contiguous
        for got, want in zip(rows.terms(theta), rows.terms(theta0)):
            _assert_same_bits(got, want)
