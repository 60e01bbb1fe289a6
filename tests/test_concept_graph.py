"""Concept-graph construction, file format, and structured-prior math.

The precision matrix for a 3-chain with lam=1, gamma=0.5 is written out by
hand: 2*lam*I + 2*gamma*L with L the path-graph Laplacian gives
[[3,-1,0],[-1,4,-1],[0,-1,3]] exactly.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogive.concept_graph import (
    MAX_CHAIN_CONCEPTS,
    ConceptGraph,
    GraphError,
    build_prior,
    chain_graph,
    load_graph,
    parse_graph,
    save_graph,
)
from reference_objectives import prior_log_density, prior_value_and_grad

PREC_3CHAIN = np.array([
    [3.0, -1.0, 0.0],
    [-1.0, 4.0, -1.0],
    [0.0, -1.0, 3.0],
])


def test_chain_graph_names_and_edges():
    g = chain_graph(10)
    assert g.concepts == tuple(f"c{i:02d}" for i in range(1, 11))
    assert g.edges == tuple((f"c{i:02d}", f"c{i + 1:02d}") for i in range(1, 10))
    assert g.n_concepts == 10


def test_chain_graph_width_grows_with_n():
    assert chain_graph(3).concepts == ("c01", "c02", "c03")
    g = chain_graph(100)
    assert g.concepts[0] == "c001"
    assert g.concepts[-1] == "c100"
    assert len(g.edges) == 99


def test_chain_graph_degenerate():
    g = chain_graph(1)
    assert g.concepts == ("c01",)
    assert g.edges == ()
    with pytest.raises(GraphError):
        chain_graph(0)
    assert chain_graph(MAX_CHAIN_CONCEPTS).n_concepts == MAX_CHAIN_CONCEPTS
    for n in (MAX_CHAIN_CONCEPTS + 1, 10**12):
        with pytest.raises(GraphError, match="chain concepts must be <="):
            chain_graph(n)


def test_graph_validation_errors():
    with pytest.raises(GraphError, match="duplicate concept"):
        ConceptGraph(("a", "a"))
    with pytest.raises(GraphError, match="self-edge"):
        ConceptGraph(("a", "b"), (("a", "a"),))
    with pytest.raises(GraphError, match="duplicate edge"):
        ConceptGraph(("a", "b"), (("a", "b"), ("a", "b")))
    with pytest.raises(GraphError, match="not a declared concept"):
        ConceptGraph(("a", "b"), (("a", "z"),))


def test_cycle_detection_reports_path():
    with pytest.raises(GraphError, match="cycle") as exc:
        ConceptGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    msg = str(exc.value)
    assert "->" in msg
    # reversed orientation of one edge is fine
    ConceptGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


def test_index_property():
    g = ConceptGraph(("x", "y", "z"))
    assert g.index == {"x": 0, "y": 1, "z": 2}


def test_parse_graph_basic():
    g = parse_graph("#concepts: a,b,c\n# a comment\na\tb\n\nb\tc\n")
    assert g.concepts == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))


def test_parse_graph_concepts_appended_in_first_appearance_order():
    g = parse_graph("#concepts: b\na\tc\n")
    assert g.concepts == ("b", "a", "c")


def test_parse_graph_isolated_concepts_survive():
    g = parse_graph("#concepts: a,b,lonely\na\tb\n")
    assert "lonely" in g.concepts
    assert g.n_concepts == 3


def test_parse_graph_bad_line_reports_line_number():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("a\tb\nnotanedge\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("a\t\n")


def test_graph_file_round_trip(tmp_path):
    g = ConceptGraph(("s", "t", "u", "island"), (("s", "t"), ("s", "u")))
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.concepts == g.concepts
    assert g2.edges == g.edges


def test_build_prior_hand_computed_precision():
    prior = build_prior(chain_graph(3), lam=1.0, gamma=0.5)
    assert np.array_equal(prior.precision, PREC_3CHAIN)


def test_build_prior_gamma_zero_is_exactly_diagonal():
    prior = build_prior(chain_graph(4), lam=0.7, gamma=0.0)
    assert np.array_equal(prior.precision, 1.4 * np.eye(4))


def test_build_prior_validation():
    g = chain_graph(2)
    with pytest.raises(GraphError):
        build_prior(g, lam=0.0, gamma=0.5)
    with pytest.raises(GraphError):
        build_prior(g, lam=-1.0, gamma=0.0)
    with pytest.raises(GraphError):
        build_prior(g, lam=1.0, gamma=-0.1)
    with pytest.raises(GraphError):
        build_prior(g, lam=np.nan, gamma=0.0)


@pytest.mark.parametrize("lam, gamma, message", [
    (1e308, 0.0, "lam=1e+308 is too large"),
    (1e308, 0.5, "lam=1e+308 is too large"),
    (1.0, 1e308, "gamma=1e+308 is too large"),
    (1.0, 6e307, "gamma=6e+307 is too large"),  # 2*gamma is finite, 2*gamma*degree 2 is not
])
def test_build_prior_refuses_an_overflowing_precision(lam, gamma, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        build_prior(chain_graph(3), lam=lam, gamma=gamma)


def test_build_prior_gamma_without_edges_never_overflows():
    prior = build_prior(ConceptGraph(("a", "b")), lam=1.0, gamma=1e308)
    assert np.array_equal(prior.precision, 2.0 * np.eye(2))


def test_value_matches_quadratic_form():
    prior = build_prior(chain_graph(3), lam=1.0, gamma=0.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.normal(size=3)
        value, grad = prior_value_and_grad(prior, theta)
        assert value == pytest.approx(-0.5 * theta @ PREC_3CHAIN @ theta, abs=1e-12)
        np.testing.assert_allclose(grad, -PREC_3CHAIN @ theta, atol=1e-12)


def test_two_concept_hand_value():
    # -lam*(1+1) - gamma*(1-(-1))^2 = -2 - 0.5*4 = -4
    prior = build_prior(chain_graph(2), lam=1.0, gamma=0.5)
    assert prior_log_density(prior, np.array([1.0, -1.0])) == pytest.approx(-4.0, abs=1e-12)


@given(
    st.integers(2, 8),
    st.floats(0.1, 3.0),
    st.floats(0.0, 3.0),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_gradient_matches_finite_differences(n, lam, gamma, seed):
    prior = build_prior(chain_graph(n), lam, gamma)
    rng = np.random.default_rng(seed)
    theta = rng.normal(scale=2.0, size=n)
    value, grad = prior_value_and_grad(prior, theta)
    h = 1e-6
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        fd = (prior_log_density(prior, theta + ei)
              - prior_log_density(prior, theta - ei)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
    # the edge sum is the quadratic form of build_prior's precision
    assert value == pytest.approx(-0.5 * theta @ prior.precision @ theta, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, -prior.precision @ theta, rtol=1e-12, atol=1e-12)


def test_sample_covariance_matches_inverse_precision():
    prior = build_prior(chain_graph(3), lam=1.0, gamma=0.5)
    rng = np.random.default_rng(7)
    draws = prior.sample(rng, size=200_000)
    assert draws.shape == (200_000, 3)
    emp = np.cov(draws.T)
    np.testing.assert_allclose(emp, np.linalg.inv(PREC_3CHAIN), atol=0.01)


def test_sample_reuses_the_factor_bit_for_bit():
    from scipy.linalg import solve_triangular

    prior = build_prior(chain_graph(4), lam=0.7, gamma=0.5)
    prior.sample(np.random.default_rng(1), size=2)
    z = np.random.default_rng(5).standard_normal((4, 3))
    fresh = solve_triangular(np.linalg.cholesky(prior.precision), z, trans="T", lower=True).T
    assert np.array_equal(prior.sample(np.random.default_rng(5), size=3), fresh)


def test_correlation_matrix_properties():
    prior = build_prior(chain_graph(5), lam=0.5, gamma=1.0)
    corr = prior.correlation()
    np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
    np.testing.assert_allclose(corr, corr.T, atol=1e-14)
    cov = np.linalg.inv(prior.precision)
    d = np.sqrt(np.diag(cov))
    np.testing.assert_allclose(corr, cov / np.outer(d, d), atol=1e-12)


def test_coupling_strength_raises_adjacent_correlation():
    weak = build_prior(chain_graph(4), lam=1.0, gamma=0.1).correlation()
    strong = build_prior(chain_graph(4), lam=1.0, gamma=2.0).correlation()
    assert strong[0, 1] > weak[0, 1] > 0.0
    uncoupled = build_prior(chain_graph(4), lam=1.0, gamma=0.0).correlation()
    assert uncoupled[0, 1] == pytest.approx(0.0, abs=1e-14)
