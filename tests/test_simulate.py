"""Synthetic cohort generator: determinism contract and drift statistics.

The seed fans out through spawned per-student streams, so a cohort prefix is
stable under growing n_students, and the empirical squared step per clock
unit recovers the generating drift variance.
"""

import json

import numpy as np
import pytest

from ogive.calibration import ItemBank
from ogive.concept_graph import chain_graph
from ogive.irt_core import STATIC, TemporalConfig
from ogive.simulate import (
    MAX_BANK_ITEMS,
    MAX_PATH_ENTRIES,
    MAX_SIMULATED_EVENTS,
    ItemBankSpec,
    SimulationScenario,
    generate,
    write_truth,
)


def empirical_step_variance(paths: dict[str, np.ndarray],
                            times: dict[str, np.ndarray]) -> np.ndarray:
    """Per-coordinate mean squared proficiency step per elapsed clock unit.

    Zero-gap pairs carry no drift and are excluded.  A scenario with
    drift variance 0 returns exactly zero.
    """
    total = None
    count = 0
    for sid, theta in paths.items():
        if len(theta) < 2:
            continue
        d = np.diff(theta, axis=0)
        dt = np.diff(times[sid])
        valid = dt > 0
        if total is None:
            total = np.zeros(theta.shape[1])
        if valid.any():
            total += (d[valid] ** 2 / dt[valid, None]).sum(axis=0)
            count += int(valid.sum())
    if total is None or count == 0:
        raise ValueError("need at least one path with two events")
    return total / count


def scenario(**kw):
    base = dict(
        seed=7, n_students=20, graph=chain_graph(3),
        bank_spec=ItemBankSpec(4), responses_per_student=30,
    )
    base.update(kw)
    return SimulationScenario(**base)


@pytest.mark.parametrize("n_students", [1, 25])
def test_generate_factors_the_prior_once(monkeypatch, n_students):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    generate(scenario(n_students=n_students))
    assert calls == [(3, 3)]


def test_bank_spec_validation():
    with pytest.raises(ValueError):
        ItemBankSpec(items_per_concept=0)
    with pytest.raises(ValueError):
        ItemBankSpec(discrimination_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        ItemBankSpec(discrimination_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        ItemBankSpec(difficulty_range=(1.0, -1.0))
    inf = float("inf")
    for bad in ((0.5, inf), (float("nan"), 1.0), (0.5, float("nan"))):
        with pytest.raises(ValueError, match="discrimination_range must be finite"):
            ItemBankSpec(discrimination_range=bad)
    for bad in ((-inf, 0.0), (0.0, inf), (float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="difficulty_range must be finite"):
            ItemBankSpec(difficulty_range=bad)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(n_students=0)
    with pytest.raises(ValueError):
        scenario(responses_per_student=0)
    with pytest.raises(ValueError):
        scenario(responses_per_student=(5, 2))
    with pytest.raises(ValueError):
        scenario(assignment="roundrobin")
    with pytest.raises(ValueError):
        scenario(block_length=0)
    with pytest.raises(ValueError):
        scenario(drift_coupling="mystery")
    with pytest.raises(ValueError):
        scenario(inter_arrival="poisson")
    for gap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mean_inter_arrival_seconds must be finite"):
            scenario(inter_arrival="exponential", mean_inter_arrival_seconds=gap)


def test_scenario_counts_are_bounded():
    """The limits hold at their edge and refuse one past it, before any draw."""
    assert scenario(n_students=MAX_SIMULATED_EVENTS // 40, responses_per_student=40)
    assert scenario(n_students=MAX_SIMULATED_EVENTS // 40, responses_per_student=(1, 40))
    for kw in ({"n_students": 10**12}, {"responses_per_student": 10**12},
               {"responses_per_student": (1, 10**12)},
               {"n_students": MAX_SIMULATED_EVENTS // 40 + 1, "responses_per_student": 40}):
        with pytest.raises(ValueError, match="n_students x responses_per_student must be <="):
            scenario(**kw)
    assert scenario(graph=chain_graph(10), bank_spec=ItemBankSpec(MAX_BANK_ITEMS // 10))
    for per in (MAX_BANK_ITEMS // 10 + 1, 10**12):
        with pytest.raises(ValueError, match="concepts x items_per_concept must be <="):
            scenario(graph=chain_graph(10), bank_spec=ItemBankSpec(per))


def test_true_paths_are_bounded():
    """Every event keeps its true proficiency on every concept: events x concepts is bounded."""
    chain = chain_graph(1000)
    assert scenario(graph=chain, bank_spec=ItemBankSpec(1),
                    n_students=MAX_PATH_ENTRIES // 2000, responses_per_student=2)
    for kw in ({"n_students": 60_000, "responses_per_student": 2},
               {"n_students": 10, "responses_per_student": (1, 10**4 + 1)}):
        with pytest.raises(ValueError,
                           match="n_students x responses_per_student x concepts must be <="):
            scenario(graph=chain, bank_spec=ItemBankSpec(1), **kw)


def test_same_seed_reproduces_everything():
    sc = scenario(true_temporal=TemporalConfig(0.05), inter_arrival="exponential",
                  mean_inter_arrival_seconds=40.0, responses_per_student=(10, 40))
    a = generate(sc)
    b = generate(sc)
    assert a.dataset.students == b.dataset.students
    for item_id in a.bank.items:
        assert a.bank[item_id].discrimination == b.bank[item_id].discrimination
        assert a.bank[item_id].difficulty == b.bank[item_id].difficulty
    for sid in a.paths:
        np.testing.assert_array_equal(a.paths[sid], b.paths[sid])
        np.testing.assert_array_equal(a.times[sid], b.times[sid])


def test_different_seeds_differ():
    a = generate(scenario(seed=1))
    b = generate(scenario(seed=2))
    assert a.dataset.students != b.dataset.students


def test_cohort_prefix_stable_as_students_are_added():
    small = generate(scenario(n_students=2))
    large = generate(scenario(n_students=3))
    for sid in small.dataset.students:
        assert large.dataset.students[sid] == small.dataset.students[sid]
        np.testing.assert_array_equal(large.paths[sid], small.paths[sid])


def test_bank_layout_and_ranges():
    sc = scenario(bank_spec=ItemBankSpec(5, (0.7, 1.9), (-1.2, 1.2)))
    result = generate(sc)
    assert len(result.bank) == 3 * 5
    ids = list(result.bank.items)
    assert ids[0] == "q0001" and ids[-1] == "q0015"
    for j, item_id in enumerate(ids):
        p = result.bank[item_id]
        assert p.concept_id == sc.graph.concepts[j // 5]
        assert 0.7 <= p.discrimination <= 1.9
        assert -1.2 <= p.difficulty <= 1.2


def test_fixed_response_count():
    result = generate(scenario(responses_per_student=25))
    for recs in result.dataset.students.values():
        assert len(recs) == 25


def test_ranged_response_count():
    result = generate(scenario(n_students=40, responses_per_student=(5, 50)))
    lengths = {len(r) for r in result.dataset.students.values()}
    assert all(5 <= n <= 50 for n in lengths)
    assert len(lengths) > 1


def test_unit_arrivals_are_consecutive_seconds():
    result = generate(scenario())
    for recs in result.dataset.students.values():
        assert [r.timestamp for r in recs] == list(range(1, len(recs) + 1))


def test_exponential_arrivals_are_nondecreasing_integers():
    result = generate(scenario(
        inter_arrival="exponential", mean_inter_arrival_seconds=300.0,
        true_temporal=TemporalConfig(0.1, "wall", 3600.0),
    ))
    saw_gap = False
    for sid, recs in result.dataset.students.items():
        ts = np.array([r.timestamp for r in recs])
        assert np.all(np.diff(ts) >= 0)
        saw_gap |= bool(np.any(np.diff(ts) > 1))
        np.testing.assert_allclose(result.times[sid], ts / 3600.0)
    assert saw_gap


def test_blocks_assignment_runs_in_multiples_of_block_length():
    sc = scenario(
        n_students=12, assignment="blocks", block_length=6,
        responses_per_student=40, bank_spec=ItemBankSpec(4),
    )
    result = generate(sc)
    for recs in result.dataset.students.values():
        concepts = [result.bank[r.item_id].concept_id for r in recs]
        runs = []
        for c in concepts:
            if runs and runs[-1][0] == c:
                runs[-1][1] += 1
            else:
                runs.append([c, 1])
        # chunk boundaries fall on multiples of 6; only the tail run may break it
        for c, n in runs[:-1]:
            assert n % 6 == 0
    assert len(runs) >= 1


def test_paths_and_times_shapes():
    result = generate(scenario(responses_per_student=(3, 20)))
    for sid, recs in result.dataset.students.items():
        n = len(recs)
        assert result.paths[sid].shape == (n, 3)
        assert result.times[sid].shape == (n,)


def test_static_paths_are_constant_and_step_variance_zero():
    result = generate(scenario(true_temporal=STATIC))
    for theta in result.paths.values():
        assert np.all(theta == theta[0])
    np.testing.assert_array_equal(
        empirical_step_variance(result.paths, result.times), np.zeros(3)
    )


def test_empirical_step_variance_recovers_nu2():
    sc = scenario(
        n_students=100, responses_per_student=50,
        true_temporal=TemporalConfig(0.1, "step"),
    )
    result = generate(sc)
    est = empirical_step_variance(result.paths, result.times)
    np.testing.assert_allclose(est, 0.1, rtol=0.15)


def test_empirical_step_variance_needs_two_events():
    result = generate(scenario(n_students=3, responses_per_student=1))
    with pytest.raises(ValueError, match="two events"):
        empirical_step_variance(result.paths, result.times)


def step_increment_correlation(result):
    """Correlation between adjacent coordinates of the per-step drift."""
    a, b = [], []
    for theta in result.paths.values():
        d = np.diff(theta, axis=0)
        a.append(d[:, 0])
        b.append(d[:, 1])
    return float(np.corrcoef(np.concatenate(a), np.concatenate(b))[0, 1])


def test_drift_coupling_shapes_step_correlation():
    kw = dict(
        n_students=60, responses_per_student=50, gamma=2.0, lam=0.5,
        true_temporal=TemporalConfig(0.1, "step"),
    )
    independent = generate(scenario(drift_coupling="independent", **kw))
    shaped = generate(scenario(drift_coupling="prior_shaped", **kw))
    assert abs(step_increment_correlation(independent)) < 0.1
    assert step_increment_correlation(shaped) > 0.3


def test_high_ability_gap_saturates_percent_correct():
    sc = scenario(
        bank_spec=ItemBankSpec(4, (2.0, 2.0), (-6.0, -6.0)),
        responses_per_student=40,
    )
    result = generate(sc)
    assert result.dataset.percent_correct > 0.99


def test_write_truth_outputs(tmp_path):
    sc = scenario(n_students=4, responses_per_student=6,
                  true_temporal=TemporalConfig(0.1, "step"))
    result = generate(sc)
    bank_path = tmp_path / "true_bank.csv"
    paths_path = tmp_path / "true_paths.jsonl"
    write_truth(result, bank_path, paths_path)

    loaded = ItemBank.load_csv(bank_path)
    assert set(loaded.items) == set(result.bank.items)

    lines = paths_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == "1"
    assert header["oracle_only"] is True
    assert header["concepts"] == list(sc.graph.concepts)
    assert header["clock"] == "step"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        obj = json.loads(line)
        theta = np.array(obj["theta"])
        assert theta.shape == (len(obj["times"]), 3)
        np.testing.assert_allclose(theta, result.paths[obj["student_id"]])
