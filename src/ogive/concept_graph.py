"""Concept DAG with prerequisite edges and the structured Gaussian prior it induces.

The prior's unnormalized log-density is -lam * sum(theta_n^2) - gamma * sum
over prerequisite pairs (n, m) of (theta_n - theta_m)^2, a multivariate
Gaussian with precision matrix 2*lam*I + 2*gamma*L, L the Laplacian of the
undirected edge skeleton.  DAG-ness is enforced at construction even though
the penalty is direction-blind: the edge list documents pedagogy and cycles
are almost always data errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid concept graph or prior configuration."""


@dataclass(frozen=True)
class ConceptGraph:
    """Ordered concept set plus prerequisite edges (prereq, postreq)."""

    concepts: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(set(self.concepts)) != len(self.concepts):
            raise GraphError("duplicate concept ids")
        known = set(self.concepts)
        seen = set()
        for n, m in self.edges:
            if n == m:
                raise GraphError(f"self-edge on concept {n!r}")
            if (n, m) in seen:
                raise GraphError(f"duplicate edge {n!r} -> {m!r}")
            seen.add((n, m))
            if n not in known or m not in known:
                missing = n if n not in known else m
                raise GraphError(f"edge endpoint {missing!r} is not a declared concept")
        cycle = _find_cycle(self.concepts, self.edges)
        if cycle is not None:
            raise GraphError("prerequisite edges contain a cycle: " + " -> ".join(cycle))

    @property
    def n_concepts(self) -> int:
        return len(self.concepts)

    @property
    def index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.concepts)}


def _find_cycle(concepts, edges):
    """Return one directed cycle as a node list, or None if the graph is a DAG."""
    succ = {c: [] for c in concepts}
    for n, m in edges:
        succ[n].append(m)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {c: WHITE for c in concepts}
    for root in concepts:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GREY
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == GREY:
                    i = path.index(child)
                    return path[i:] + [child]
                if color[child] == WHITE:
                    color[child] = GREY
                    path.append(child)
                    stack.append((child, iter(succ[child])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def chain_graph(n: int, prefix: str = "c") -> ConceptGraph:
    """Chain of n concepts with edges c1 -> c2 -> ... -> cn."""
    if n < 1:
        raise GraphError("chain needs at least one concept")
    width = max(2, len(str(n)))
    names = tuple(f"{prefix}{i + 1:0{width}d}" for i in range(n))
    return ConceptGraph(names, tuple(zip(names[:-1], names[1:])))


@dataclass(frozen=True, eq=False)
class StructuredPrior:
    """Gaussian prior over the concept-proficiency vector.

    Built by `build_prior`; carries the precision matrix 2*lam*I + 2*gamma*L
    and precomputed edge index arrays for fast quadratic-form evaluation.
    """

    graph: ConceptGraph
    lam: float
    gamma: float
    precision: np.ndarray
    edge_tail: np.ndarray = field(repr=False, default=None)
    edge_head: np.ndarray = field(repr=False, default=None)

    def value_and_grad(self, theta: np.ndarray):
        """Unnormalized log-density and its gradient at theta.

        Uses the direct sum formula; the coupling loop is skipped entirely
        when gamma == 0 so the factorial special case costs nothing extra.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.graph.n_concepts,):
            raise GraphError(
                f"theta has shape {theta.shape}, expected ({self.graph.n_concepts},)"
            )
        value = -self.lam * float(theta @ theta)
        grad = -2.0 * self.lam * theta
        if self.gamma != 0.0 and len(self.edge_tail):
            diff = theta[self.edge_tail] - theta[self.edge_head]
            value -= self.gamma * float(diff @ diff)
            np.add.at(grad, self.edge_tail, -2.0 * self.gamma * diff)
            np.add.at(grad, self.edge_head, 2.0 * self.gamma * diff)
        return value, grad

    def log_density(self, theta: np.ndarray) -> float:
        """Unnormalized log-density -lam*sum(theta^2) - gamma*sum((theta_n-theta_m)^2)."""
        return self.value_and_grad(theta)[0]

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw `size` vectors from the prior via its Cholesky factor."""
        chol = np.linalg.cholesky(self.precision)
        z = rng.standard_normal((self.graph.n_concepts, size))
        return _chol_solve_t(chol, z).T

    def correlation(self) -> np.ndarray:
        """Correlation matrix of the prior (inverse precision, normalized)."""
        cov = np.linalg.inv(self.precision)
        d = 1.0 / np.sqrt(np.diag(cov))
        return cov * d[:, None] * d[None, :]


def _chol_solve_t(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve chol.T @ x = z; x then has covariance inv(chol @ chol.T)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(chol, z, trans="T", lower=True)


def build_prior(graph: ConceptGraph, lam: float, gamma: float) -> StructuredPrior:
    """Assemble the structured prior and verify positive definiteness.

    lam must be strictly positive, otherwise the density is improper along
    the all-ones direction (and everywhere when gamma is 0); gamma must be
    nonnegative.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise GraphError(f"lam must be > 0, got {lam}")
    if not np.isfinite(gamma) or gamma < 0.0:
        raise GraphError(f"gamma must be >= 0, got {gamma}")
    c = graph.n_concepts
    index = graph.index
    tail = np.array([index[n] for n, _ in graph.edges], dtype=np.intp)
    head = np.array([index[m] for _, m in graph.edges], dtype=np.intp)
    precision = 2.0 * lam * np.eye(c)
    if len(tail):
        lap = np.zeros((c, c))
        np.add.at(lap, (tail, tail), 1.0)
        np.add.at(lap, (head, head), 1.0)
        np.add.at(lap, (tail, head), -1.0)
        np.add.at(lap, (head, tail), -1.0)
        precision += 2.0 * gamma * lap
    try:
        np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:  # unreachable for lam > 0, kept as a guard
        raise GraphError("precision matrix is not positive definite") from exc
    return StructuredPrior(graph, float(lam), float(gamma), precision, tail, head)


# -- graph file format --------------------------------------------------------
#
# UTF-8 text, one edge per line as `prereq_id<TAB>postreq_id`.  Lines starting
# with `#concepts:` declare concepts (comma-separated) and fix their order;
# concepts appearing only in edges are appended in first-appearance order.
# Other `#` lines are comments; blank lines are ignored.


def parse_graph(text: str) -> ConceptGraph:
    concepts: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def add_concept(c: str):
        if c not in seen:
            seen.add(c)
            concepts.append(c)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#concepts:"):
            for c in line[len("#concepts:"):].split(","):
                c = c.strip()
                if c:
                    add_concept(c)
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise GraphError(
                f"line {lineno}: expected `prereq<TAB>postreq`, got {raw!r}"
            )
        n, m = parts[0].strip(), parts[1].strip()
        add_concept(n)
        add_concept(m)
        edges.append((n, m))
    return ConceptGraph(tuple(concepts), tuple(edges))


def load_graph(path) -> ConceptGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(graph: ConceptGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#concepts: " + ",".join(graph.concepts) + "\n")
        for n, m in graph.edges:
            fh.write(f"{n}\t{m}\n")
