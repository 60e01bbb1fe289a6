"""Item bank persistence and the alternating calibration loop.

The joint objective must be nondecreasing across half-steps; the loop raises
CalibrationError if a half-step ever lowers it, so a completed run doubles as
a monotonicity check.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr

from ogive import calibration
from ogive.calibration import (
    ITEM_SWEEPS,
    CalibrationConfig,
    ItemBank,
    calibrate,
    recovery_correlations,
)
from ogive.dataio import DataError, Dataset, InteractionRecord
from ogive.irt_core import ItemParams, probit


def make_bank(params):
    return ItemBank({p.item_id: p for p in params})


def test_bank_csv_round_trip_exact(tmp_path):
    bank = make_bank([
        ItemParams("q1", 1.2345678901234567, -0.9876543210987654, "alg"),
        ItemParams("q2", 0.3, 2.0, "geo"),
    ])
    path = tmp_path / "bank.csv"
    bank.save_csv(path)
    loaded = ItemBank.load_csv(path)
    assert list(loaded.items) == ["q1", "q2"]
    for item_id in bank.items:
        # .17g serialization round-trips float64 bit for bit
        assert loaded[item_id].discrimination == bank[item_id].discrimination
        assert loaded[item_id].difficulty == bank[item_id].difficulty
        assert loaded[item_id].concept_id == bank[item_id].concept_id


def test_bank_load_errors(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("wrong,header,entirely,here\n")
    with pytest.raises(DataError, match="header"):
        ItemBank.load_csv(path)
    path.write_text(
        "item_id,concept_id,discrimination,difficulty\n"
        "q1,all,1.0,0.0\n"
        "q1,all,1.5,0.5\n"
    )
    with pytest.raises(DataError, match="duplicate"):
        ItemBank.load_csv(path)
    path.write_text(
        "item_id,concept_id,discrimination,difficulty\nq1,all,-2.0,0.0\n"
    )
    with pytest.raises(DataError, match="line 2"):
        ItemBank.load_csv(path)


def test_bank_container_protocol():
    bank = make_bank([ItemParams("a", 1.0, 0.0, "x"), ItemParams("b", 2.0, 1.0, "y")])
    assert len(bank) == 2
    assert "a" in bank and "z" not in bank
    assert bank["b"].difficulty == 1.0
    assert bank.concepts() == ("x", "y")
    ids, alphas, betas, concepts = bank.arrays()
    assert ids == ["a", "b"]
    np.testing.assert_array_equal(alphas, [1.0, 2.0])
    np.testing.assert_array_equal(betas, [0.0, 1.0])
    assert concepts == ["x", "y"]


def test_config_validation():
    for name, value in (("convergence_delta", 0.0), ("convergence_delta", float("nan")),
                        ("convergence_delta", float("inf")), ("discrimination_floor", -1.0),
                        ("discrimination_floor", float("nan")),
                        ("discrimination_floor", float("inf")), ("max_outer_rounds", -1)):
        with pytest.raises(ValueError, match=name):
            CalibrationConfig(**{name: value})


def synthetic_training(seed, n_students, n_items, responses_each, bank=None):
    rng = np.random.default_rng(seed)
    if bank is None:
        bank = make_bank([
            ItemParams(f"q{j:03d}", rng.uniform(0.6, 2.0), rng.uniform(-1.5, 1.5))
            for j in range(n_items)
        ])
    ids = list(bank.items)
    theta = rng.normal(scale=np.sqrt(0.5), size=n_students)
    records = []
    for s in range(n_students):
        for t in range(responses_each):
            item = bank[ids[int(rng.integers(len(ids)))]]
            p = probit(item.discrimination * (theta[s] - item.difficulty))
            records.append(
                InteractionRecord(f"s{s:04d}", item.item_id, int(rng.random() < p), t)
            )
    return Dataset.from_records(records), bank


def test_one_round_matches_scalar_coordinate_ascent():
    """One round equals maximizing the joint objective one scalar at a time.

    The reference is independent of the batched solver: every student's
    theta, then ITEM_SWEEPS sweeps of every difficulty and then every
    discrimination (bounded below by the floor), each by a scalar search.
    """
    training, _ = synthetic_training(4, 25, 5, 12)
    cfg = CalibrationConfig(max_outer_rounds=1)
    fitted = calibrate(training, cfg)

    records = training.all_records()
    students = list(training.students)
    items = list(dict.fromkeys(r.item_id for r in records))
    s_idx = np.array([students.index(r.student_id) for r in records])
    q_idx = np.array([items.index(r.item_id) for r in records])
    sign = np.array([2.0 * r.correct - 1.0 for r in records])
    theta = np.zeros(len(students))
    alpha = np.full(len(items), calibration.DISCRIMINATION_PRIOR_MEAN)
    beta = np.full(len(items), calibration.DIFFICULTY_PRIOR_MEAN)

    def joint():
        z = alpha[q_idx] * (theta[s_idx] - beta[q_idx])
        value = log_ndtr(sign * z).sum()
        for x, mean, var in (
            (theta, calibration.STUDENT_PRIOR_MEAN, calibration.STUDENT_PRIOR_VARIANCE),
            (beta, calibration.DIFFICULTY_PRIOR_MEAN, calibration.DIFFICULTY_PRIOR_VARIANCE),
            (alpha, calibration.DISCRIMINATION_PRIOR_MEAN,
             calibration.DISCRIMINATION_PRIOR_VARIANCE),
        ):
            value -= ((x - mean) ** 2).sum() / (2 * var)
        return value

    def ascend(params, k, bounds=None):
        def negated(x):
            params[k] = x
            return -joint()

        if bounds is None:
            res = minimize_scalar(negated, bracket=(params[k] - 0.5, params[k] + 0.5),
                                  tol=1e-12)
        else:
            res = minimize_scalar(negated, bounds=bounds, method="bounded",
                                  options={"xatol": 1e-12})
        params[k] = res.x

    for k in range(len(students)):
        ascend(theta, k)
    for _ in range(ITEM_SWEEPS):
        for k in range(len(items)):
            ascend(beta, k)
        for k in range(len(items)):
            ascend(alpha, k, bounds=(cfg.discrimination_floor, 10.0))

    for j, item_id in enumerate(items):
        assert fitted[item_id].difficulty == pytest.approx(beta[j], abs=1e-6)
        assert fitted[item_id].discrimination == pytest.approx(alpha[j], abs=1e-6)
    assert fitted.meta.objective == pytest.approx(joint(), abs=1e-6)


@pytest.mark.parametrize("overrides", [
    {"discrimination_floor": calibration.DISCRIMINATION_PRIOR_MEAN},
    {"discrimination_floor": calibration.DISCRIMINATION_PRIOR_MEAN + 0.25},
    {"discrimination_floor": 2.0},
])
def test_calibrate_discrimination_prior_at_or_below_floor(overrides):
    # the blocks start at max(prior mean, floor), which is always feasible
    training, _ = synthetic_training(6, 40, 5, 15)
    cfg = CalibrationConfig(max_outer_rounds=5, **overrides)
    fitted = calibrate(training, cfg)
    _, alphas, betas, _ = fitted.arrays()
    assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))
    assert np.all(alphas >= cfg.discrimination_floor)
    assert np.isfinite(fitted.meta.objective)


def test_calibrate_student_without_records():
    training, _ = synthetic_training(7, 20, 4, 10)
    students = dict(training.students)
    students["silent"] = []
    fitted = calibrate(Dataset(students), CalibrationConfig(max_outer_rounds=3))
    assert np.isfinite(fitted.meta.objective)
    assert sum(fitted.meta.response_counts.values()) == training.n_responses


def test_calibrate_anti_discriminating_item_sits_on_the_floor():
    rng = np.random.default_rng(10)
    bank = make_bank([ItemParams(f"q{j}", 1.2, b) for j, b in enumerate((-1.0, -0.3, 0.3, 1.0))])
    records = []
    for s, theta in enumerate(rng.normal(scale=np.sqrt(0.5), size=150)):
        for t, item in enumerate(bank.items.values()):
            p = probit(item.discrimination * (theta - item.difficulty))
            records.append(InteractionRecord(f"s{s}", item.item_id, int(rng.random() < p), t))
        records.append(InteractionRecord(f"s{s}", "anti", int(theta < 0.0), 4))
    cfg = CalibrationConfig(max_outer_rounds=10)
    fitted = calibrate(Dataset.from_records(records), cfg)
    assert fitted.meta.floored_items == ("anti",)
    assert fitted["anti"].discrimination == cfg.discrimination_floor


def test_calibrate_small_run_metadata_and_recovery():
    training, truth = synthetic_training(31, 150, 12, 40)
    fitted = calibrate(training, CalibrationConfig(max_outer_rounds=30))
    assert fitted.meta is not None
    assert 1 <= fitted.meta.rounds <= 30
    assert fitted.meta.final_delta is not None
    assert set(fitted.meta.response_counts) == set(truth.items)
    assert sum(fitted.meta.response_counts.values()) == training.n_responses
    assert np.isfinite(fitted.meta.objective)
    for p in fitted.items.values():
        assert p.discrimination >= CalibrationConfig().discrimination_floor
        assert p.concept_id == "all"
    corr = recovery_correlations(fitted, truth)
    assert corr["n_shared_items"] == 12
    assert corr["difficulty"] > 0.9
    assert corr["discrimination"] > 0.5


def test_calibrate_concept_map_applied():
    training, _ = synthetic_training(5, 40, 4, 15)
    cmap = {"q000": "alg", "q001": "alg", "q002": "geo"}
    fitted = calibrate(training, CalibrationConfig(max_outer_rounds=3), concept_map=cmap)
    assert fitted["q000"].concept_id == "alg"
    assert fitted["q002"].concept_id == "geo"
    assert fitted["q003"].concept_id == "all"


def test_calibrate_zero_rounds_returns_prior_means():
    training, _ = synthetic_training(8, 30, 5, 10)
    cfg = CalibrationConfig(max_outer_rounds=0)
    fitted = calibrate(training, cfg)
    for p in fitted.items.values():
        assert p.discrimination == pytest.approx(calibration.DISCRIMINATION_PRIOR_MEAN)
        assert p.difficulty == pytest.approx(calibration.DIFFICULTY_PRIOR_MEAN)
    assert fitted.meta.rounds == 0
    assert fitted.meta.objective is None


def test_calibrate_empty_training_rejected():
    with pytest.raises(DataError, match="empty"):
        calibrate(Dataset.from_records([]))


def test_calibrate_deterministic():
    training, _ = synthetic_training(12, 50, 6, 20)
    cfg = CalibrationConfig(max_outer_rounds=5)
    a = calibrate(training, cfg)
    b = calibrate(training, cfg)
    for item_id in a.items:
        assert a[item_id].discrimination == b[item_id].discrimination
        assert a[item_id].difficulty == b[item_id].difficulty


def test_recovery_correlations_perfect_and_errors():
    bank = make_bank([
        ItemParams("a", 1.0, -1.0), ItemParams("b", 1.5, 0.0), ItemParams("c", 2.0, 1.0),
    ])
    corr = recovery_correlations(bank, bank)
    assert corr["discrimination"] == pytest.approx(1.0)
    assert corr["difficulty"] == pytest.approx(1.0)
    other = make_bank([ItemParams("a", 1.0, 0.0), ItemParams("z", 1.0, 0.0)])
    with pytest.raises(DataError, match="2 shared"):
        recovery_correlations(bank, other)
