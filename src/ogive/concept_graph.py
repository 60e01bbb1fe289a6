"""Concept DAG with prerequisite edges and the structured Gaussian prior it induces.

The prior's unnormalized log-density is -lam * sum(theta_n^2) - gamma * sum
over prerequisite pairs (n, m) of (theta_n - theta_m)^2, a multivariate
Gaussian with precision matrix 2*lam*I + 2*gamma*L, L the Laplacian of the
undirected edge skeleton.  DAG-ness is enforced at construction even though
the penalty is direction-blind: the edge list documents pedagogy and cycles
are almost always data errors.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


# the prior is a dense concepts x concepts precision, 8 MB at this size
MAX_CHAIN_CONCEPTS = 1000


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
    """One directed cycle as a node list, first node repeated last, or None for a DAG."""
    prerequisites = {c: [] for c in concepts}
    for n, m in edges:
        prerequisites[m].append(n)
    try:
        graphlib.TopologicalSorter(prerequisites).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def chain_graph(n: int) -> ConceptGraph:
    """Chain of n concepts c01 -> c02 -> ... -> cn, ids zero-padded to at least two digits."""
    if n < 1:
        raise GraphError("chain needs at least one concept")
    if n > MAX_CHAIN_CONCEPTS:
        raise GraphError(f"chain concepts must be <= {MAX_CHAIN_CONCEPTS}, got {n}")
    width = max(2, len(str(n)))
    names = tuple(f"c{i + 1:0{width}d}" for i in range(n))
    return ConceptGraph(names, tuple(zip(names[:-1], names[1:])))


@dataclass(frozen=True, eq=False)
class StructuredPrior:
    """Gaussian prior over the concept-proficiency vector.

    Built by `build_prior`; carries the precision matrix 2*lam*I + 2*gamma*L.
    """

    graph: ConceptGraph
    lam: float
    gamma: float
    precision: np.ndarray

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the precision, factored once per prior."""
        return np.linalg.cholesky(self.precision)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw `size` vectors from the prior via its Cholesky factor."""
        z = rng.standard_normal((self.graph.n_concepts, size))
        return _chol_solve_t(self.cholesky, z).T

    def correlation(self) -> np.ndarray:
        """Correlation matrix of the prior (inverse precision, normalized)."""
        cov = np.linalg.inv(self.precision)
        d = 1.0 / np.sqrt(np.diag(cov))
        return cov * d[:, None] * d[None, :]


def _chol_solve_t(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve chol.T @ x = z; x then has covariance inv(chol @ chol.T)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(chol, z, trans="T", lower=True)


def check_precision_finite(lam: float, gamma: float = 0.0, max_degree: int = 0) -> None:
    """Raise GraphError naming the setting when 2*lam*I + 2*gamma*L overflows.

    max_degree is the largest concept degree of the skeleton, so the largest
    entry is 2*lam + 2*gamma*max_degree; checked before the matrix is formed,
    where inf * 0 would fill it with NaN.
    """
    if not math.isfinite(2.0 * lam):
        raise GraphError(f"lam={lam} is too large: the prior precision 2*lam overflows")
    if not math.isfinite(2.0 * lam + 2.0 * (gamma * max_degree)):  # no inf * 0
        raise GraphError(f"gamma={gamma} is too large: the prior precision "
                         "2*lam*I + 2*gamma*L overflows")


def build_prior(graph: ConceptGraph, lam: float, gamma: float) -> StructuredPrior:
    """Assemble the structured prior and verify positive definiteness.

    lam must be strictly positive, otherwise the density is improper along
    the all-ones direction (and everywhere when gamma is 0); gamma must be
    nonnegative.  Settings whose precision overflows are refused.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise GraphError(f"lam must be > 0, got {lam}")
    if not np.isfinite(gamma) or gamma < 0.0:
        raise GraphError(f"gamma must be >= 0, got {gamma}")
    c = graph.n_concepts
    index = graph.index
    tail = np.array([index[n] for n, _ in graph.edges], dtype=np.intp)
    head = np.array([index[m] for _, m in graph.edges], dtype=np.intp)
    degree = np.bincount(np.concatenate([tail, head]), minlength=c)
    check_precision_finite(lam, gamma, int(degree.max(initial=0)))
    precision = 2.0 * lam * np.eye(c)
    if len(tail):
        lap = np.zeros((c, c))
        np.add.at(lap, (tail, tail), 1.0)
        np.add.at(lap, (head, head), 1.0)
        np.add.at(lap, (tail, head), -1.0)
        np.add.at(lap, (head, tail), -1.0)
        precision += 2.0 * gamma * lap
    prior = StructuredPrior(graph, float(lam), float(gamma), precision)
    # the check factors the precision that `sample` reuses; it fails only
    # when 2*gamma*L swamps 2*lam in rounding
    try:
        prior.cholesky
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"precision matrix is not positive definite at lam={lam}, "
                         f"gamma={gamma}") from exc
    return prior


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
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def save_graph(graph: ConceptGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#concepts: " + ",".join(graph.concepts) + "\n")
        for n, m in graph.edges:
            fh.write(f"{n}\t{m}\n")
