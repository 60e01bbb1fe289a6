"""Synthetic-data oracle: students generated from the model's own law.

The first proficiency vector is drawn from the structured prior; subsequent
vectors take independent per-coordinate Gaussian steps of variance nu2 per
elapsed clock unit (optionally coupled through the prior's correlation shape,
a stress scenario for the factorized-inference approximation).  Responses are
Bernoulli draws through the probit response curve.  Everything derives from
one integer seed through per-student spawned random streams, so output is
bit-reproducible and independent of generation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .calibration import ItemBank
from .concept_graph import ConceptGraph, StructuredPrior, build_prior
from .dataio import Dataset, InteractionRecord
from .irt_core import STATIC, ItemParams, TemporalConfig, check_drift_finite, probit

TRUTH_FORMAT_VERSION = "1"

# generation holds every event in memory: about 185 bytes each on CPython 3.11
# (peak, wall-clock timestamps), so about 1.9 GB at the event limit, plus the
# true path of every event, 8 bytes per concept, so at most 0.8 GB of paths
MAX_SIMULATED_EVENTS = 10**7  # students x the largest response count
MAX_PATH_ENTRIES = 10**8  # students x the largest response count x concepts
MAX_BANK_ITEMS = 10**5  # concepts x items per concept


@dataclass(frozen=True)
class ItemBankSpec:
    """Uniform ranges the true bank is drawn from."""

    items_per_concept: int = 10
    discrimination_range: tuple[float, float] = (0.5, 2.0)
    difficulty_range: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.items_per_concept < 1:
            raise ValueError("items_per_concept must be >= 1")
        a_lo, a_hi = self.discrimination_range
        if not (0.0 < a_lo <= a_hi and math.isfinite(a_hi)):
            raise ValueError("discrimination_range must be finite and satisfy 0 < lo <= hi")
        b_lo, b_hi = self.difficulty_range
        if not (math.isfinite(b_lo) and b_lo <= b_hi and math.isfinite(b_hi)):
            raise ValueError("difficulty_range must be finite and satisfy lo <= hi")


@dataclass(frozen=True)
class SimulationScenario:
    seed: int
    n_students: int
    graph: ConceptGraph
    bank_spec: ItemBankSpec = ItemBankSpec()
    true_temporal: TemporalConfig = STATIC
    lam: float = 1.0
    gamma: float = 0.0
    responses_per_student: Union[int, tuple[int, int]] = 100
    assignment: str = "uniform"  # or "blocks": runs of block_length on one concept
    block_length: int = 10
    drift_coupling: str = "independent"  # or "prior_shaped"
    inter_arrival: str = "unit"  # or "exponential"
    mean_inter_arrival_seconds: float = 1.0

    def __post_init__(self):
        if self.n_students < 1:
            raise ValueError("n_students must be >= 1")
        r = self.responses_per_student
        if isinstance(r, int):
            if r < 1:
                raise ValueError("responses_per_student must be >= 1")
        else:
            lo, hi = r
            if not 1 <= lo <= hi:
                raise ValueError("responses_per_student range must satisfy 1 <= lo <= hi")
        events = self.n_students * (r if isinstance(r, int) else r[1])
        if events > MAX_SIMULATED_EVENTS:
            raise ValueError(f"n_students x responses_per_student must be <= "
                             f"{MAX_SIMULATED_EVENTS}, got {events}")
        if events * self.graph.n_concepts > MAX_PATH_ENTRIES:
            raise ValueError(f"n_students x responses_per_student x concepts must be <= "
                             f"{MAX_PATH_ENTRIES} (the true paths), got "
                             f"{events} x {self.graph.n_concepts}")
        n_items = self.graph.n_concepts * self.bank_spec.items_per_concept
        if n_items > MAX_BANK_ITEMS:
            raise ValueError(f"concepts x items_per_concept must be <= {MAX_BANK_ITEMS}, "
                             f"got {n_items}")
        if self.assignment not in ("uniform", "blocks"):
            raise ValueError(f"unknown assignment policy {self.assignment!r}")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.drift_coupling not in ("independent", "prior_shaped"):
            raise ValueError(f"unknown drift coupling {self.drift_coupling!r}")
        if self.inter_arrival not in ("unit", "exponential"):
            raise ValueError(f"unknown inter-arrival mode {self.inter_arrival!r}")
        gap = self.mean_inter_arrival_seconds
        if not (math.isfinite(gap) and gap > 0.0):
            raise ValueError(f"mean_inter_arrival_seconds must be finite and > 0, got {gap}")

    @property
    def true_prior(self) -> StructuredPrior:
        return build_prior(self.graph, self.lam, self.gamma)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    dataset: Dataset
    bank: ItemBank
    paths: dict[str, np.ndarray] = field(repr=False)  # (n_events, C) per student
    times: dict[str, np.ndarray] = field(repr=False)  # event times in clock units
    scenario: SimulationScenario = field(repr=False, default=None)


def _id_series(prefix: str, n: int) -> list[str]:
    width = max(4, len(str(n)))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def generate(scenario: SimulationScenario) -> SimulationResult:
    """Draw the full synthetic cohort for a scenario.

    Random stream layout (the determinism contract): the scenario seed spawns
    one child stream for the bank and one per student; within a student the
    draw order is response count, item assignment, arrival gaps, initial
    proficiency, drift steps, response coin flips.
    """
    graph = scenario.graph
    prior = scenario.true_prior
    n_concepts = graph.n_concepts
    spec = scenario.bank_spec
    n_items = n_concepts * spec.items_per_concept

    root = np.random.SeedSequence(scenario.seed)
    bank_ss, students_ss = root.spawn(2)
    bank_rng = np.random.default_rng(bank_ss)
    alphas = bank_rng.uniform(*spec.discrimination_range, n_items)
    betas = bank_rng.uniform(*spec.difficulty_range, n_items)
    item_ids = _id_series("q", n_items)
    item_concept_idx = np.arange(n_items) // spec.items_per_concept
    bank = ItemBank(
        {
            item_ids[j]: ItemParams(
                item_ids[j], float(alphas[j]), float(betas[j]),
                graph.concepts[item_concept_idx[j]],
            )
            for j in range(n_items)
        }
    )

    temporal = scenario.true_temporal
    nu2 = temporal.drift_variance
    chol_shape = None
    if scenario.drift_coupling == "prior_shaped":
        chol_shape = np.linalg.cholesky(prior.correlation())

    student_ids = _id_series("s", scenario.n_students)
    student_seeds = students_ss.spawn(scenario.n_students)
    students: dict[str, list[InteractionRecord]] = {}
    paths: dict[str, np.ndarray] = {}
    times: dict[str, np.ndarray] = {}
    for sid, seed in zip(student_ids, student_seeds):
        rng = np.random.default_rng(seed)
        r = scenario.responses_per_student
        n_i = r if isinstance(r, int) else int(rng.integers(r[0], r[1] + 1))

        if scenario.assignment == "uniform":
            items = rng.integers(0, n_items, n_i)
        else:
            chunks = []
            remaining = n_i
            per = spec.items_per_concept
            while remaining > 0:
                k = int(rng.integers(0, n_concepts))
                m = min(scenario.block_length, remaining)
                chunks.append(rng.integers(k * per, (k + 1) * per, m))
                remaining -= m
            items = np.concatenate(chunks)

        if scenario.inter_arrival == "unit":
            timestamps = np.arange(1, n_i + 1, dtype=np.int64)
        else:
            gaps = np.rint(rng.exponential(scenario.mean_inter_arrival_seconds, n_i))
            timestamps = np.cumsum(gaps.astype(np.int64))
        units = temporal.event_time(np.arange(1, n_i + 1, dtype=float), timestamps)

        theta0 = prior.sample(rng, 1)[0]
        theta = np.empty((n_i, n_concepts))
        theta[0] = theta0
        if n_i > 1:
            z = rng.standard_normal((n_i - 1, n_concepts))
            if chol_shape is not None:
                z = z @ chol_shape.T
            dt = np.diff(units)
            check_drift_finite(nu2, 1.0, dt.max())  # the variance nu2 * gap is alpha = 1's
            theta[1:] = theta0 + np.cumsum(np.sqrt(nu2 * dt)[:, None] * z, axis=0)

        cidx = item_concept_idx[items]
        p = probit(alphas[items] * (theta[np.arange(n_i), cidx] - betas[items]))
        correct = (rng.random(n_i) < p).astype(int)
        # timestamps never decrease, so the stream is already in `Dataset` order
        students[sid] = [
            InteractionRecord(sid, item_ids[j], c, t)
            for j, c, t in zip(items.tolist(), correct.tolist(), timestamps.tolist())
        ]
        paths[sid] = theta
        times[sid] = units

    return SimulationResult(Dataset(students), bank, paths, times, scenario)


def write_truth(result: SimulationResult, bank_path, paths_path) -> None:
    """Write the true bank and proficiency paths (oracle-only outputs)."""
    result.bank.save_csv(bank_path)
    scenario = result.scenario
    with open(paths_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "format_version": TRUTH_FORMAT_VERSION,
            "oracle_only": True,
            "concepts": list(scenario.graph.concepts),
            "clock": scenario.true_temporal.clock,
        }) + "\n")
        for sid, theta in result.paths.items():
            fh.write(json.dumps({
                "student_id": sid,
                "times": [float(t) for t in result.times[sid]],
                "theta": [[float(x) for x in row] for row in theta],
            }) + "\n")
