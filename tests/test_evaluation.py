"""Streaming evaluation harness, ranking metric, and report serialization.

Each prediction must come from strictly prior history of the same student:
the first prediction equals the prior-mean prediction, and removing other
students from the dataset never changes a student's probabilities (lockstep
rows are independent).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ogive
from ogive import evaluation, inference
from ogive.calibration import ItemBank
from ogive.concept_graph import ConceptGraph, build_prior, chain_graph
from ogive.dataio import Dataset, InteractionRecord
from ogive.evaluation import (
    MAX_BUCKETS,
    MODEL_KINDS,
    REPORT_FORMAT_VERSION,
    ModelVariant,
    _auc_from_arrays,
    bucket_by_student_percent_correct,
    model_prior,
    record_columns,
    run_online_evaluation,
    summary_table,
    write_bucket_tsv,
    write_report_json,
)
from ogive.inference import SolverConfig, estimate_history
from ogive.irt_core import ItemParams, probit
from reference_objectives import per_event_harness


def small_bank(n_items=6, concepts=("c01", "c02")):
    rng = np.random.default_rng(17)
    items = {}
    for j in range(n_items):
        item_id = f"q{j}"
        items[item_id] = ItemParams(
            item_id, float(rng.uniform(0.6, 2.0)), float(rng.uniform(-1.5, 1.5)),
            concepts[j % len(concepts)],
        )
    return ItemBank(items)


def streaming_data(bank, n_students=5, n_events=12, seed=3):
    rng = np.random.default_rng(seed)
    ids = list(bank.items)
    records = []
    for s in range(n_students):
        for t in range(n_events):
            records.append(
                InteractionRecord(
                    f"s{s}", ids[int(rng.integers(len(ids)))],
                    int(rng.random() < 0.55), t + 1,
                )
            )
    return Dataset.from_records(records)


# -- model menu ---------------------------------------------------------------


def test_model_menu_defaults():
    assert ModelVariant.from_name("spc").hyperparameters() == {}
    static = ModelVariant.from_name("static_2po")
    assert static.hyperparameters() == {"lam": 1.0}
    temporal = ModelVariant.from_name("temporal_2po")
    assert temporal.hyperparameters() == {"nu2": 10.0, "lam": 1.0}
    factorial = ModelVariant.from_name("factorial_mvn")
    assert factorial.hyperparameters() == {"lam": 1.0}
    corr = ModelVariant.from_name("correlated_mvn")
    assert corr.hyperparameters() == {"lam": 1.0, "gamma": 0.5}
    tsk = ModelVariant.from_name("tskirt")
    assert tsk.hyperparameters() == {"nu2": 0.1, "lam": 1.0, "gamma": 0.5}


def test_model_overrides_apply_only_where_the_kind_has_the_knob():
    v = ModelVariant.from_name("static_2po", nu2=0.3, lam=2.0, gamma=9.0)
    assert v.hyperparameters() == {"lam": 2.0}
    assert v.nu2 == v.gamma == 0.0  # dataclass defaults, not the ignored overrides
    for kind, knobs in (("temporal_2po", {"nu2": 0.3, "lam": 2.0}),
                        ("factorial_mvn", {"lam": 2.0}),
                        ("correlated_mvn", {"lam": 2.0, "gamma": 9.0}),
                        ("tskirt", {"nu2": 0.3, "lam": 2.0, "gamma": 9.0})):
        v = ModelVariant.from_name(kind, nu2=0.3, lam=2.0, gamma=9.0)
        assert v.hyperparameters() == knobs
    spc = ModelVariant.from_name("spc", nu2=5.0, lam=5.0, gamma=5.0)
    assert spc.hyperparameters() == {}


def test_model_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelVariant.from_name("irt3pl")
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelVariant("irt3pl")
    nan, inf = float("nan"), float("inf")
    for name, value in (("nu2", -0.1), ("nu2", nan), ("nu2", inf), ("lam", 0.0),
                        ("lam", nan), ("lam", inf), ("gamma", -1.0), ("gamma", nan),
                        ("gamma", inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelVariant("tskirt", **{name: value})


@pytest.mark.parametrize("kind, knob", [
    ("spc", "nu2"), ("static_2po", "nu2"), ("factorial_mvn", "nu2"), ("correlated_mvn", "nu2"),
    ("spc", "gamma"), ("static_2po", "gamma"), ("temporal_2po", "gamma"),
    ("factorial_mvn", "gamma"),
])
def test_model_refuses_a_knob_its_kind_lacks(kind, knob):
    with pytest.raises(ValueError, match=f"model '{kind}' has no .*{knob} must be 0"):
        ModelVariant(kind, **{knob: 0.5})
    assert getattr(ModelVariant(kind, **{knob: 0.0}), knob) == 0.0


def test_model_kind_partition():
    for kind in MODEL_KINDS:
        v = ModelVariant.from_name(kind)
        assert not (v.is_spc and v.is_vector)


# -- prior resolution ---------------------------------------------------------


def test_resolve_prior_branches():
    bank = small_bank()
    graph = chain_graph(2)
    model = ModelVariant("tskirt", nu2=0.1, lam=1.0, gamma=0.5)
    precision, _, concept_ids = model_prior(model, graph, bank)
    assert np.array_equal(precision, build_prior(graph, 1.0, 0.5).precision)
    assert concept_ids == graph.concepts

    with pytest.raises(ValueError, match="concept graph"):
        model_prior(model, None, bank)
    factorial = ModelVariant("factorial_mvn", lam=1.0)
    precision, _, concept_ids = model_prior(factorial, None, bank)
    assert concept_ids == bank.concepts()
    assert np.array_equal(precision, 2.0 * np.eye(len(concept_ids)))

    with pytest.raises(TypeError):
        model_prior(model, 42, bank)
    with pytest.raises(TypeError, match="ConceptGraph or None"):
        model_prior(model, build_prior(graph, 1.0, 0.5), bank)


# -- ranking metric -----------------------------------------------------------


def auc(scores, outcomes):
    return _auc_from_arrays(np.array(scores, dtype=float), np.array(outcomes))


def test_auc_hand_case():
    assert auc([0.9, 0.8, 0.7, 0.3], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_ties_count_half():
    assert auc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)
    assert auc([0.4, 0.4, 0.4, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_degenerate():
    assert auc([], []) is None
    assert auc([0.9, 0.8], [1, 1]) is None
    assert auc([0.9], [0]) is None


def test_auc_matches_brute_force_pair_count():
    rng = np.random.default_rng(23)
    scores = rng.random(60)
    scores[rng.integers(0, 60, size=10)] = 0.5  # force some ties
    outcomes = (rng.random(60) < 0.5).astype(int)
    fast = _auc_from_arrays(scores, outcomes)
    wins = 0.0
    pairs = 0
    for i in range(60):
        for j in range(60):
            if outcomes[i] == 1 and outcomes[j] == 0:
                pairs += 1
                if scores[i] > scores[j]:
                    wins += 1.0
                elif scores[i] == scores[j]:
                    wins += 0.5
    assert fast == pytest.approx(wins / pairs, abs=1e-12)


# -- percent-correct buckets --------------------------------------------------


def test_bucket_hand_case():
    # student 0: 2/2 correct; student 1: 0/2; student 2: 1/2
    probabilities = np.array([0.8, 0.7, 0.4, 0.3, 0.6, 0.2])
    outcomes = np.array([1, 1, 0, 0, 1, 0])
    student_index = np.array([0, 0, 1, 1, 2, 2])
    buckets = bucket_by_student_percent_correct(probabilities, outcomes, student_index, 2)
    assert len(buckets) == 2
    low, high = buckets
    # pc = 0.5 sits on the boundary and the nudge sends it up
    assert low.n_students == 1 and low.n_predictions == 2
    assert high.n_students == 2 and high.n_predictions == 4
    assert low.accuracy == pytest.approx(1.0)  # both low predictions land right
    assert high.accuracy == pytest.approx(1.0)
    assert low.low == 0.0 and high.high == 1.0


def test_bucket_emits_empty_bins():
    probabilities = np.array([0.9])
    outcomes = np.array([1])
    student_index = np.array([0])
    buckets = bucket_by_student_percent_correct(probabilities, outcomes, student_index, 4)
    assert len(buckets) == 4
    assert [b.n_predictions for b in buckets] == [0, 0, 0, 1]
    for b in buckets[:3]:
        assert b.accuracy is None and b.auc is None and b.mean_log_likelihood is None


def test_bucket_perfect_student_goes_to_last_bin():
    probabilities = np.array([0.9, 0.9])
    outcomes = np.array([1, 1])
    student_index = np.array([0, 0])
    buckets = bucket_by_student_percent_correct(probabilities, outcomes, student_index, 10)
    assert buckets[-1].n_predictions == 2


def test_bucket_empty_input_and_validation():
    out = bucket_by_student_percent_correct(np.array([]), np.array([]), np.array([]), 3)
    assert len(out) == 3
    assert all(b.n_predictions == 0 for b in out)
    with pytest.raises(ValueError):
        bucket_by_student_percent_correct(np.array([]), np.array([]), np.array([]), 0)
    assert len(bucket_by_student_percent_correct(
        np.array([]), np.array([]), np.array([]), MAX_BUCKETS)) == MAX_BUCKETS
    for n_bins in (MAX_BUCKETS + 1, 10**12):
        with pytest.raises(ValueError, match="n_bins must be between 1 and"):
            bucket_by_student_percent_correct(np.array([]), np.array([]), np.array([]), n_bins)


@pytest.mark.parametrize("n_buckets", [0, MAX_BUCKETS + 1])
def test_bucket_count_is_checked_before_scoring(monkeypatch, n_buckets):
    def unreachable(*args, **kwargs):
        raise AssertionError("scored events before checking n_buckets")

    monkeypatch.setattr(evaluation, "batched_vector_map", unreachable)
    bank = small_bank()
    with pytest.raises(ValueError, match=f"n_bins must be between 1 and {MAX_BUCKETS}, "
                                         f"got {n_buckets}"):
        run_online_evaluation(streaming_data(bank), bank, ModelVariant.from_name("static_2po"),
                              n_buckets=n_buckets)


def test_bucket_with_auc_flag():
    probabilities = np.array([0.9, 0.2])
    outcomes = np.array([1, 0])
    student_index = np.array([0, 0])
    buckets = bucket_by_student_percent_correct(
        probabilities, outcomes, student_index, 1, with_auc=False
    )
    assert buckets[0].auc is None
    assert buckets[0].accuracy == pytest.approx(1.0)


# -- the streaming harness ----------------------------------------------------


def test_spc_matches_running_counter():
    bank = small_bank()
    ids = list(bank.items)
    pattern = [1, 0, 1, 1, 0]
    records = [
        InteractionRecord("s", ids[t % len(ids)], r, t + 1)
        for t, r in enumerate(pattern)
    ]
    report = run_online_evaluation(
        Dataset.from_records(records), bank, ModelVariant("spc"), n_buckets=1
    )
    expected = [0.5, 1 / 1, 1 / 2, 2 / 3, 3 / 4]
    np.testing.assert_allclose(report.probabilities, expected, atol=0)
    assert report.auc is None
    assert report.auc_note == "baseline emits no ranking score"


def test_first_prediction_uses_prior_mean_only():
    bank = small_bank()
    data = streaming_data(bank, n_students=4, n_events=6)
    report = run_online_evaluation(
        data, bank, ModelVariant.from_name("static_2po"), n_buckets=1
    )
    lengths = np.bincount(report.student_index)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    for s, sid in enumerate(report.students):
        first = data.students[sid][0]
        item = bank[first.item_id]
        expected = probit(item.discrimination * (0.0 - item.difficulty))
        assert report.probabilities[starts[s]] == pytest.approx(expected, abs=1e-12)


def test_predictions_independent_of_other_students():
    bank = small_bank()
    data = streaming_data(bank, n_students=5, n_events=10, seed=8)
    for model in (ModelVariant.from_name("temporal_2po", nu2=0.2),
                  ModelVariant.from_name("tskirt")):
        graph = chain_graph(2)
        full = run_online_evaluation(data, bank, model, prior_graph=graph, n_buckets=1)
        lengths = np.bincount(full.student_index)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        target = full.students[2]
        alone = Dataset({target: data.students[target]})
        solo = run_online_evaluation(alone, bank, model, prior_graph=graph, n_buckets=1)
        s = 2
        np.testing.assert_allclose(
            solo.probabilities,
            full.probabilities[starts[s]: starts[s] + lengths[s]],
            atol=1e-12,
        )


def test_scalar_harness_matches_fresh_prefix_solves():
    bank = small_bank()
    data = streaming_data(bank, n_students=3, n_events=8, seed=5)
    model = ModelVariant.from_name("temporal_2po", nu2=0.3, lam=0.8)
    report = run_online_evaluation(data, bank, model, n_buckets=1)
    _, alphas, betas, _ = bank.arrays()
    flat = 0
    for sid in report.students:
        item, correct, _ = record_columns(data.students[sid], bank)
        steps = np.arange(1.0, len(item) + 1)
        for t in range(len(item)):
            est = estimate_history(alphas[item[:t]], betas[item[:t]], correct[:t], steps[:t],
                                   float(t + 1), 0.3, np.array([[1.6]]),
                                   np.zeros(t, dtype=np.intp))
            j = item[t]
            expected = probit(alphas[j] * (est.theta[0] - betas[j]))
            assert report.probabilities[flat] == pytest.approx(expected, abs=1e-7)
            flat += 1
    assert flat == report.n_predictions


def test_step_and_wall_clocks_agree_on_unit_spaced_timestamps():
    bank = small_bank()
    data = streaming_data(bank, n_students=4, n_events=7, seed=11)
    model = ModelVariant.from_name("tskirt", nu2=0.2)
    graph = chain_graph(2)
    by_step = run_online_evaluation(data, bank, model, prior_graph=graph,
                                    clock="step", n_buckets=1)
    by_wall = run_online_evaluation(data, bank, model, prior_graph=graph,
                                    clock="wall", seconds_per_unit=1.0, n_buckets=1)
    np.testing.assert_allclose(by_wall.probabilities, by_step.probabilities, atol=1e-12)


def test_metrics_recomputable_from_raw_arrays():
    bank = small_bank()
    data = streaming_data(bank, n_students=5, n_events=9, seed=21)
    report = run_online_evaluation(data, bank, ModelVariant.from_name("static_2po"),
                                   n_buckets=3)
    p, y = report.probabilities, report.outcomes
    acc = float(((p >= 0.5) == (y == 1)).mean())
    assert report.accuracy == pytest.approx(acc, abs=1e-15)
    sem = np.sqrt(acc * (1 - acc) / len(p))
    assert report.accuracy_sem == pytest.approx(sem, abs=1e-15)
    assert report.n_predictions == len(p) == data.n_responses
    assert report.n_threshold_ties == int((p == 0.5).sum())
    assert len(report.buckets) == 3


def test_unknown_items_are_dropped_and_counted():
    bank = small_bank(n_items=3)
    records = [
        InteractionRecord("s1", "q0", 1, 1),
        InteractionRecord("s1", "mystery", 1, 2),
        InteractionRecord("s1", "q1", 0, 3),
        InteractionRecord("s2", "mystery", 1, 1),
    ]
    report = run_online_evaluation(
        Dataset.from_records(records), bank, ModelVariant("spc"), n_buckets=1
    )
    assert report.n_skipped_events == 2
    assert report.n_predictions == 2
    assert report.students == ("s1",)  # s2 had nothing evaluable


def test_all_events_unknown_is_an_error():
    bank = small_bank(n_items=2)
    records = [InteractionRecord("s1", "nope", 1, 1)]
    with pytest.raises(ValueError, match="no evaluable events"):
        run_online_evaluation(Dataset.from_records(records), bank, ModelVariant("spc"))


def test_out_of_order_timestamps_rejected():
    bank = small_bank()
    d = Dataset({"s": [
        InteractionRecord("s", "q0", 1, 10),
        InteractionRecord("s", "q1", 0, 5),
    ]})
    with pytest.raises(ValueError, match="out of time order"):
        run_online_evaluation(d, bank, ModelVariant("spc"))


def test_out_of_order_timestamp_on_unknown_item_rejected():
    # the order check runs before bank-unknown events drop out, and names the
    # first offending student
    bank = small_bank()
    d = Dataset({
        "ok": [InteractionRecord("ok", "q0", 1, 1), InteractionRecord("ok", "q1", 0, 2)],
        "late": [
            InteractionRecord("late", "q0", 1, 1),
            InteractionRecord("late", "mystery", 0, 10),
            InteractionRecord("late", "q1", 1, 5),
        ],
        "early": [
            InteractionRecord("early", "q0", 1, 10),
            InteractionRecord("early", "mystery", 0, 5),
        ],
    })
    with pytest.raises(ValueError, match="student 'late': events out of time order"):
        run_online_evaluation(d, bank, ModelVariant.from_name("static_2po"))
    del d.students["late"]
    with pytest.raises(ValueError, match="student 'early': events out of time order"):
        run_online_evaluation(d, bank, ModelVariant.from_name("static_2po"))


def test_bad_clock_rejected():
    bank = small_bank()
    data = streaming_data(bank, n_students=2, n_events=6)
    with pytest.raises(ValueError, match="clock"):
        run_online_evaluation(data, bank, ModelVariant("spc"), clock="lunar")


@pytest.mark.parametrize("seconds_per_unit", [0.0, -60.0, float("nan")])
def test_bad_seconds_per_unit_rejected(seconds_per_unit):
    bank = small_bank()
    data = streaming_data(bank, n_students=2, n_events=6)
    with pytest.raises(ValueError, match="seconds_per_unit must be finite and > 0"):
        run_online_evaluation(data, bank, ModelVariant.from_name("tskirt"),
                              prior_graph=chain_graph(2), clock="wall",
                              seconds_per_unit=seconds_per_unit)


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(ogive.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ogive; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"


# -- metamorphic properties of the history layout -----------------------------
#
# Every per-student computation is elementwise per row, so a student's
# predictions are bit-for-bit the same whatever else shares the batch.

METAMORPHIC_KINDS = ("spc", "static_2po", "temporal_2po", "correlated_mvn", "tskirt")


def wall_data(bank, n_students, n_events, seed, prefix="s", shift=0):
    """Streams on irregular integer timestamps, ties included, offset by `shift`."""
    rng = np.random.default_rng(seed)
    ids = list(bank.items)
    records = []
    for s in range(n_students):
        stamps = shift + np.cumsum(rng.integers(0, 5000, n_events))
        for t in range(n_events):
            records.append(InteractionRecord(
                f"{prefix}{s}", ids[int(rng.integers(len(ids)))],
                int(rng.random() < 0.55), int(stamps[t]),
            ))
    return Dataset.from_records(records)


def per_student(data, bank, kind, **kwargs):
    report = run_online_evaluation(data, bank, ModelVariant.from_name(kind),
                                   prior_graph=chain_graph(2), n_buckets=1, **kwargs)
    return {sid: report.probabilities[report.student_index == s]
            for s, sid in enumerate(report.students)}


def assert_same_predictions(got, want):
    for sid, probs in want.items():
        np.testing.assert_array_equal(got[sid], probs, err_msg=sid)


@pytest.mark.parametrize("kind", METAMORPHIC_KINDS)
@pytest.mark.parametrize("clock", ["step", "wall"])
def test_student_order_does_not_change_predictions(kind, clock):
    bank = small_bank()
    data = wall_data(bank, n_students=6, n_events=9, seed=41)
    # ragged streams, so a reordering also reorders the batch rows of each step
    for k, sid in enumerate(data.students):
        del data.students[sid][k + 3:]
    reversed_data = Dataset(dict(reversed(list(data.students.items()))))
    base = per_student(data, bank, kind, clock=clock, seconds_per_unit=3600.0)
    got = per_student(reversed_data, bank, kind, clock=clock, seconds_per_unit=3600.0)
    assert list(got) == list(reversed(list(base)))
    assert_same_predictions(got, base)


@pytest.mark.parametrize("kind", METAMORPHIC_KINDS)
def test_duplicated_stream_gets_identical_predictions(kind):
    bank = small_bank()
    data = wall_data(bank, n_students=4, n_events=10, seed=43)
    base = per_student(data, bank, kind, clock="wall", seconds_per_unit=3600.0)
    twin = [InteractionRecord("twin", r.item_id, r.correct, r.timestamp)
            for r in data.students["s1"]]
    doubled = Dataset({**data.students, "twin": twin})
    got = per_student(doubled, bank, kind, clock="wall", seconds_per_unit=3600.0)
    assert_same_predictions(got, base)
    np.testing.assert_array_equal(got["twin"], base["s1"])


@pytest.mark.parametrize("kind", METAMORPHIC_KINDS)
def test_unrelated_students_do_not_change_predictions(kind):
    bank = small_bank()
    data = wall_data(bank, n_students=4, n_events=8, seed=47)
    base = per_student(data, bank, kind)
    # longer streams widen the layout and join every step's batch
    others = wall_data(bank, n_students=5, n_events=15, seed=53, prefix="x")
    mixed = Dataset({"x0": others.students["x0"], **data.students,
                     **{sid: recs for sid, recs in others.students.items() if sid != "x0"}})
    assert_same_predictions(per_student(mixed, bank, kind), base)


@pytest.mark.parametrize("kind", METAMORPHIC_KINDS)
def test_wall_clock_shift_does_not_change_predictions(kind):
    bank = small_bank()
    data = wall_data(bank, n_students=4, n_events=10, seed=59)
    shifted = wall_data(bank, n_students=4, n_events=10, seed=59, shift=10**7)
    # integer timestamps: every difference is exact at one second per unit
    assert_same_predictions(per_student(shifted, bank, kind, clock="wall"),
                            per_student(data, bank, kind, clock="wall"))
    # dividing by 3600 rounds each timestamp, so shifted differences move in
    # the last bits
    base = per_student(data, bank, kind, clock="wall", seconds_per_unit=3600.0)
    got = per_student(shifted, bank, kind, clock="wall", seconds_per_unit=3600.0)
    for sid, probs in base.items():
        np.testing.assert_allclose(got[sid], probs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["temporal_2po", "tskirt"])
def test_clock_unit_and_drift_scale_together(kind):
    """Scaling seconds_per_unit and nu2 by one k keeps nu2 * elapsed and every prediction."""
    bank = small_bank()
    data = wall_data(bank, n_students=4, n_events=10, seed=61)
    nu2 = ModelVariant.from_name(kind).nu2

    def predictions(k):
        model = ModelVariant.from_name(kind, nu2=nu2 * k)
        return run_online_evaluation(data, bank, model, prior_graph=chain_graph(2),
                                     n_buckets=1, clock="wall",
                                     seconds_per_unit=3600.0 * k).probabilities

    base = predictions(1.0)
    # a power of two scales every product and quotient exactly
    for k in (2.0, 0.25):
        np.testing.assert_array_equal(predictions(k), base)
    for k in (3.0, 1.0 / 3600.0):
        np.testing.assert_allclose(predictions(k), base, rtol=0.0, atol=1e-12)


def test_vector_model_requires_known_concepts():
    bank = ItemBank({"q0": ItemParams("q0", 1.0, 0.0, "offgrid")})
    data = Dataset.from_records(
        [InteractionRecord("s", "q0", 1, t) for t in range(1, 7)]
    )
    with pytest.raises(ValueError, match="not a node"):
        run_online_evaluation(data, bank, ModelVariant.from_name("tskirt"),
                              prior_graph=chain_graph(2))


# -- serialization ------------------------------------------------------------


def test_report_json_round_trip(tmp_path):
    bank = small_bank()
    data = streaming_data(bank, n_students=4, n_events=8)
    report = run_online_evaluation(data, bank, ModelVariant.from_name("tskirt"),
                                   prior_graph=chain_graph(2), n_buckets=4)
    path = tmp_path / "report.json"
    write_report_json(report, path, run_config={"seed": 1})
    payload = json.loads(path.read_text())
    assert payload["format_version"] == REPORT_FORMAT_VERSION
    assert payload["model"] == "tskirt"
    assert payload["hyperparameters"] == {"nu2": 0.1, "lam": 1.0, "gamma": 0.5}
    assert payload["run_config"] == {"seed": 1}
    m = payload["metrics"]
    assert m["accuracy"] == pytest.approx(report.accuracy)
    assert m["n_predictions"] == report.n_predictions
    assert len(payload["buckets"]) == 4
    assert set(payload["buckets"][0]) == {
        "low", "high", "n_students", "n_predictions",
        "accuracy", "auc", "mean_log_likelihood",
    }


def test_bucket_tsv_layout(tmp_path):
    bank = small_bank()
    data = streaming_data(bank, n_students=4, n_events=8)
    reports = [
        run_online_evaluation(data, bank, ModelVariant("spc"), n_buckets=3),
        run_online_evaluation(data, bank, ModelVariant.from_name("static_2po"),
                              n_buckets=3),
    ]
    path = tmp_path / "buckets.tsv"
    write_bucket_tsv(reports, path, run_config={"n_buckets": 3})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# run_config: ")
    assert lines[1] == "# format_version: " + REPORT_FORMAT_VERSION
    assert lines[2].split("\t")[0] == "model"
    body = lines[3:]
    assert len(body) == 2 * 3
    assert {row.split("\t")[0] for row in body} == {"spc", "static_2po"}


def test_summary_table_layout():
    bank = small_bank()
    data = streaming_data(bank, n_students=3, n_events=6)
    reports = [
        run_online_evaluation(data, bank, ModelVariant("spc"), n_buckets=1),
        run_online_evaluation(data, bank, ModelVariant.from_name("static_2po"),
                              n_buckets=1),
    ]
    table = summary_table(reports)
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["model", "accuracy"]
    assert len(lines) == 4
    assert lines[2].startswith("spc")
    assert "n/a" in lines[2]  # spc has no ranking score
    assert lines[3].startswith("static_2po")


@pytest.mark.parametrize("kind", ["static_2po", "temporal_2po", "correlated_mvn", "tskirt"])
def test_one_concept_steps_copy_no_coordinates(monkeypatch, kind):
    # every step hands its objective views of the coordinate columns, all
    # zero for a one-concept model; that objective never reads them, so
    # handing it None gives the same bits.  Every step's objective is built
    # through `batched_vector_map`, static and drift kinds alike.
    bank = small_bank()
    data = streaming_data(bank, n_students=6, n_events=15)
    model = ModelVariant.from_name(kind)
    graph = ConceptGraph(("c01", "c02"), (("c01", "c02"),))
    report = run_online_evaluation(data, bank, model, graph)
    build = inference.StackedLogPosterior
    seen = []

    def no_columns(a_eff, beta, correct, concept_idx, counts, precision, *rest, **kw):
        assert concept_idx.base is not None  # a view, not a copy
        seen.append(len(precision) == 1)
        if len(precision) == 1:
            assert not concept_idx.any()
            concept_idx = None
        return build(a_eff, beta, correct, concept_idx, counts, precision, *rest, **kw)

    monkeypatch.setattr(inference, "StackedLogPosterior", no_columns)
    without_columns = run_online_evaluation(data, bank, model, graph)
    assert seen and set(seen) == {not model.is_vector}
    assert report.probabilities.tobytes() == without_columns.probabilities.tobytes()


# -- the harness against its per-event oracle ---------------------------------
#
# Static kinds hold each history as counted (item, outcome) cells; drift kinds
# solve one cell per event.  Either way the harness must predict what a fresh
# per-event solve of every prefix does.

LATENT_KINDS = ("static_2po", "temporal_2po", "factorial_mvn", "correlated_mvn", "tskirt")


def ragged_data(bank, seed):
    """Streams of 1-40 events, items repeating, many equal timestamps."""
    rng = np.random.default_rng(seed)
    ids = list(bank.items)
    records = []
    for s, n in enumerate(rng.permutation([1, 2, 7, 12, 25, 33, 40])):
        stamps = np.cumsum(rng.choice([0, 0, 0, 1, 3600, 9000], size=n))
        for t in range(n):
            records.append(InteractionRecord(f"s{s}", ids[int(rng.integers(len(ids)))],
                                             int(rng.random() < 0.6), int(stamps[t])))
    return Dataset.from_records(records)


@pytest.mark.parametrize("kind", LATENT_KINDS)
@pytest.mark.parametrize("clock", ["step", "wall"])
@pytest.mark.parametrize("max_iterations", [100, 1])
def test_harness_matches_per_event_oracle(kind, clock, max_iterations):
    bank = small_bank()
    data = ragged_data(bank, seed=71)
    model = ModelVariant.from_name(kind)
    solver = SolverConfig(max_iterations=max_iterations)
    graph = chain_graph(2)
    report = run_online_evaluation(data, bank, model, graph, solver, n_buckets=1,
                                   clock=clock, seconds_per_unit=3600.0)
    probs, n_unconverged = per_event_harness(data, bank, model, graph, solver, clock, 3600.0)
    assert report.n_unconverged == n_unconverged
    assert (n_unconverged > 0) == (max_iterations == 1)
    if model.nu2 == 0.0:
        np.testing.assert_allclose(report.probabilities, probs, rtol=0.0, atol=1e-12)
    else:
        assert report.probabilities.tobytes() == probs.tobytes()


@pytest.mark.parametrize("kind", LATENT_KINDS)
def test_every_harness_step_is_one_batched_solve(monkeypatch, kind):
    # steps 2.. of the longest stream each solve once, every live row in one
    # cold `batched_vector_map` call, static kinds included
    bank = small_bank()
    data = ragged_data(bank, seed=71)
    solve = evaluation.batched_vector_map
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(evaluation, "batched_vector_map", counting)
    report = run_online_evaluation(data, bank, ModelVariant.from_name(kind), chain_graph(2),
                                   n_buckets=1)
    lengths = sorted((len(recs) for recs in data.students.values()), reverse=True)
    assert len(calls) == lengths[0] - 1
    # step t solves the students whose streams are longer than t - 1 events
    assert calls == [sum(n >= t for n in lengths) for t in range(2, lengths[0] + 1)]
    assert report.n_predictions == sum(lengths)


def test_static_harness_cells_grow_linearly_in_stream_length(monkeypatch):
    # a static step reads one cell per distinct (item, outcome) pair, at most
    # 40 here, so the kernel's cells grow as T; one cell per event grows as T^2
    bank = small_bank(n_items=20)
    kernel = inference.bernoulli_probit_terms
    cells = []

    def counting(zs):
        cells[-1] += zs.size
        return kernel(zs)

    monkeypatch.setattr(inference, "bernoulli_probit_terms", counting)
    for n_events in (1000, 4000):
        cells.append(0)
        run_online_evaluation(streaming_data(bank, n_students=2, n_events=n_events), bank,
                              ModelVariant.from_name("static_2po"), n_buckets=1)
    assert cells[1] <= 5 * cells[0]
