"""Interaction-log parsing, retention rules, and dataset splitting.

Retention is capping-before-filtering: a student with 5 attempts on one item
plus 1 other response keeps 4+1=5 and survives the minimum, which pins the
rule order.
"""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogive.concept_graph import chain_graph
from ogive.dataio import (
    ByStudentFraction,
    ByTimeCutoff,
    DataError,
    Dataset,
    InteractionRecord,
    load_interactions,
    preprocess,
    split_dataset,
    write_interactions,
)
from ogive.irt_core import ItemParams, ResponseEvent
from ogive.simulate import SimulationScenario, generate


def rec(sid, item, correct, ts):
    return InteractionRecord(sid, item, correct, ts)


def dataset(*records):
    return Dataset.from_records(records)


def test_record_validation():
    rec("s", "q", 1, 0)
    with pytest.raises(DataError):
        rec("", "q", 1, 0)
    with pytest.raises(DataError):
        rec("s", "", 1, 0)
    with pytest.raises(DataError):
        rec("s", "q", 2, 0)
    with pytest.raises(DataError):
        rec("s", "q", 1, -5)


def test_grouping_and_stable_time_order():
    d = dataset(
        rec("s1", "a", 1, 30),
        rec("s1", "b", 0, 10),
        rec("s2", "a", 1, 5),
        rec("s1", "c", 1, 10),  # ties b on timestamp, must stay after it
    )
    assert [r.item_id for r in d.students["s1"]] == ["b", "c", "a"]
    assert [r.item_id for r in d.students["s2"]] == ["a"]
    assert d.n_students == 2
    assert d.n_items == 3
    assert d.n_responses == 4
    assert d.percent_correct == pytest.approx(0.75)


def test_summary_keys():
    d = dataset(rec("s", "q", 1, 0), rec("s", "r", 0, 1))
    s = d.summary()
    assert s == {
        "n_students": 1,
        "n_items": 2,
        "n_responses": 2,
        "percent_correct": 0.5,
        "n_parse_errors": 0,
    }
    empty = Dataset.from_records([])
    assert empty.summary()["percent_correct"] is None
    assert np.isnan(empty.percent_correct)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_write_load_round_trip(tmp_path, format):
    d = dataset(
        rec("s1", "a", 1, 30),
        rec("s1", "b", 0, 10),
        rec("s2", "a/odd,id", 1, 5),
    )
    path = tmp_path / f"log.{format}"
    write_interactions(d, path, format=format)
    d2 = load_interactions(path, format=format)
    assert d2.students == d.students
    assert d2.parse_errors == ()


# -- the bulk record types ----------------------------------------------------

RECORDS = {
    "InteractionRecord": (rec("s1", "q7", 1, 100), "timestamp", 200),
    "ItemParams": (ItemParams("q7", 1.3, -0.4, "c01"), "difficulty", 0.6),
    "ResponseEvent": (ResponseEvent(ItemParams("q7", 1.3, -0.4), 0, 3, 12.0), "step_index", 4),
}


@pytest.mark.parametrize("name", RECORDS)
def test_bulk_records_are_slotted_and_frozen(name):
    obj, field, _ = RECORDS[name]
    assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


@pytest.mark.parametrize("name", RECORDS)
def test_bulk_records_round_trip_by_value(name):
    obj, field, other = RECORDS[name]
    twin = dataclasses.replace(obj)
    assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert copied == obj and hash(copied) == hash(obj)
    changed = dataclasses.replace(obj, **{field: other})
    assert changed != obj and getattr(changed, field) == other
    assert dataclasses.replace(changed, **{field: getattr(obj, field)}) == obj


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_load_shares_one_string_per_id(tmp_path, format):
    d = dataset(rec("s1", "q17", 1, 1), rec("s2", "q17", 0, 2), rec("s1", "q18", 1, 3),
                rec("s2", "q18", 1, 4), rec("s1", "q17", 0, 5))
    path = tmp_path / f"log.{format}"
    write_interactions(d, path, format=format)
    students, items = {}, {}
    for r in load_interactions(path, format=format).all_records():
        assert students.setdefault(r.student_id, r.student_id) is r.student_id
        assert items.setdefault(r.item_id, r.item_id) is r.item_id
    assert list(students) == ["s1", "s2"] and list(items) == ["q17", "q18"]


def test_loaded_rows_stay_small(tmp_path):
    """A loaded log retains at most 150 bytes per row, ids and grouping included."""
    path = tmp_path / "log.csv"
    cohort = generate(SimulationScenario(seed=0, n_students=200, graph=chain_graph(5),
                                         responses_per_student=100))
    write_interactions(cohort.dataset, path)
    del cohort
    tracemalloc.start()
    try:
        data = load_interactions(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == 20_000
    assert retained / len(data) <= 150


def test_empty_csv_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    d = load_interactions(path)
    assert d.n_students == 0 and d.n_responses == 0


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,question,score,when\n")
    with pytest.raises(DataError, match="header"):
        load_interactions(path)


def test_csv_hand_fixture_exact_fields(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "student_id,item_id,correct,timestamp\n"
        "s1,q7,1,100\n"
        "s1,q8,0,200\n"
        "s2,q7,1,50\n"
    )
    d = load_interactions(path)
    assert d.students["s1"] == [rec("s1", "q7", 1, 100), rec("s1", "q8", 0, 200)]
    assert d.students["s2"] == [rec("s2", "q7", 1, 50)]


def test_malformed_rows_lenient_vs_strict(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "student_id,item_id,correct,timestamp\n"
        "s1,q1,1,100\n"
        "s1,q2,7,100\n"        # bad correct, line 3
        "s1,q3,1\n"            # wrong field count, line 4
        "s1,q4,0,12.5\n"       # fractional seconds, line 5
        "s1,q5,0,400\n"
        "s1,q6,1,inf\n"        # non-finite timestamps, lines 7-9
        "s1,q7,1,1e400\n"
        "s1,q8,1,nan\n"
    )
    d = load_interactions(path)
    assert [r.item_id for r in d.students["s1"]] == ["q1", "q5"]
    assert [lineno for lineno, _ in d.parse_errors] == [3, 4, 5, 7, 8, 9]
    assert d.summary()["n_parse_errors"] == 6
    with pytest.raises(DataError, match="line 3"):
        load_interactions(path, strict=True)
    path.write_text("student_id,item_id,correct,timestamp\ns1,q1,1,1e400\n")
    with pytest.raises(DataError, match="line 2: timestamp '1e400' is not an integer"):
        load_interactions(path, strict=True)


def test_jsonl_malformed_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"student_id": "s", "item_id": "q", "correct": 1, "timestamp": 3}\n'
        "not json\n"
        '{"student_id": "s", "correct": 1, "timestamp": 4}\n'
        "[1, 2]\n"
        '{"student_id": "s", "item_id": "q", "correct": 1, "timestamp": 1e400}\n'
        '{"student_id": "s", "item_id": "q", "correct": 1, "timestamp": Infinity}\n'
        '{"student_id": "s", "item_id": "q", "correct": 1, "timestamp": "inf"}\n'
    )
    d = load_interactions(path, format="jsonl")
    assert d.n_responses == 1
    assert [lineno for lineno, _ in d.parse_errors] == [2, 3, 4, 5, 6, 7]
    with pytest.raises(DataError, match="line 2"):
        load_interactions(path, format="jsonl", strict=True)
    path.write_text('{"student_id": "s", "item_id": "q", "correct": 1, "timestamp": 1e400}\n')
    with pytest.raises(DataError, match="line 1: timestamp inf is not an integer"):
        load_interactions(path, format="jsonl", strict=True)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(DataError, match="format"):
        load_interactions(tmp_path / "x", format="parquet")
    with pytest.raises(DataError, match="format"):
        write_interactions(Dataset.from_records([]), tmp_path / "x", format="tsv")


def test_integer_valued_float_timestamp_accepted(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("student_id,item_id,correct,timestamp\ns,q,1,30.0\n")
    d = load_interactions(path)
    assert d.students["s"][0].timestamp == 30


# -- preprocessing ------------------------------------------------------------


def test_preprocess_drops_short_history_student():
    d = dataset(*(rec("s", f"q{i}", 1, i) for i in range(4)))
    assert preprocess(d).n_students == 0
    d5 = dataset(*(rec("s", f"q{i}", 1, i) for i in range(5)))
    assert preprocess(d5).n_students == 1


def test_preprocess_keeps_last_four_attempts():
    d = dataset(*(rec("s", "q", i % 2, ts) for i, ts in enumerate([10, 20, 30, 40, 50, 60])))
    out = preprocess(d, min_responses=0)
    kept = out.students["s"]
    assert [r.timestamp for r in kept] == [30, 40, 50, 60]


def test_preprocess_cap_then_filter_order():
    # 5 attempts on one item plus 1 other response: cap leaves 4+1=5, kept
    records = [rec("s", "q", 1, ts) for ts in (1, 2, 3, 4, 5)]
    records.append(rec("s", "other", 0, 6))
    out = preprocess(dataset(*records))
    assert out.n_students == 1
    assert out.students["s"][-1].item_id == "other"
    assert len(out.students["s"]) == 5
    # without the extra response the cap leaves 4 < 5 and the student drops
    out2 = preprocess(dataset(*records[:5]))
    assert out2.n_students == 0


def test_preprocess_validation():
    d = dataset(rec("s", "q", 1, 0))
    with pytest.raises(DataError):
        preprocess(d, min_responses=-1)
    with pytest.raises(DataError):
        preprocess(d, max_attempts_per_item=0)


_records_strategy = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2", "s3"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 1),
        st.integers(0, 50),
    ),
    max_size=60,
)


@given(_records_strategy)
@settings(max_examples=80, deadline=None)
def test_preprocess_idempotent(rows):
    d = dataset(*(rec(*row) for row in rows))
    once = preprocess(d)
    twice = preprocess(once)
    assert twice.students == once.students


@given(_records_strategy)
@settings(max_examples=50, deadline=None)
def test_preprocess_monotone_in_min_responses(rows):
    d = dataset(*(rec(*row) for row in rows))
    lax = set(preprocess(d, min_responses=3).students)
    tight = set(preprocess(d, min_responses=6).students)
    assert tight <= lax


# -- splitting ----------------------------------------------------------------


def ten_students():
    return dataset(*(rec(f"s{i}", "q", 1, t) for i in range(10) for t in (10, 20)))


def test_split_by_student_fraction_partitions():
    d = ten_students()
    train, evals = split_dataset(d, ByStudentFraction(0.5), seed=0)
    assert train.n_students == 5 and evals.n_students == 5
    assert set(train.students).isdisjoint(evals.students)
    assert set(train.students) | set(evals.students) == set(d.students)


def test_split_deterministic_given_seed():
    d = ten_students()
    a1, b1 = split_dataset(d, ByStudentFraction(0.3), seed=7)
    a2, b2 = split_dataset(d, ByStudentFraction(0.3), seed=7)
    assert set(a1.students) == set(a2.students)
    assert set(b1.students) == set(b2.students)


def test_split_fraction_validation():
    with pytest.raises(DataError):
        ByStudentFraction(0.0)
    with pytest.raises(DataError):
        ByStudentFraction(1.0)
    two = dataset(rec("a", "q", 1, 0), rec("b", "q", 1, 0))
    with pytest.raises(DataError, match="empty side"):
        split_dataset(two, ByStudentFraction(0.01), seed=0)
    one = dataset(rec("a", "q", 1, 0))
    with pytest.raises(DataError, match="2 students"):
        split_dataset(one, ByStudentFraction(0.5), seed=0)


def test_split_by_time_cutoff():
    d = dataset(
        rec("s1", "a", 1, 10), rec("s1", "b", 0, 30),
        rec("s2", "a", 1, 20), rec("s2", "b", 1, 40),
    )
    train, evals = split_dataset(d, ByTimeCutoff(20))
    assert {r.timestamp for recs in train.students.values() for r in recs} == {10, 20}
    assert {r.timestamp for recs in evals.students.values() for r in recs} == {30, 40}
    n = train.n_responses + evals.n_responses
    assert n == d.n_responses


def test_split_time_cutoff_at_max_errors():
    d = dataset(rec("s1", "a", 1, 10), rec("s1", "b", 0, 30))
    with pytest.raises(DataError, match="empty side"):
        split_dataset(d, ByTimeCutoff(30))
    with pytest.raises(DataError, match="empty side"):
        split_dataset(d, ByTimeCutoff(5))


def test_split_unknown_policy():
    with pytest.raises(DataError, match="policy"):
        split_dataset(ten_students(), "halfsies")
