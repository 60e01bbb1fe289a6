"""Interaction-log ingestion, preprocessing rules, and train/eval splitting.

File formats:
  CSV   header `student_id,item_id,correct,timestamp`, one response per row
  JSONL one object per line with the same keys

Timestamps are nonnegative integer seconds.  Within a student, records are
kept in nondecreasing timestamp order with input order breaking ties; every
downstream consumer relies on that ordering.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class DataError(ValueError):
    """Malformed interaction data or degenerate split."""


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One observed response event.

    Slotted: a loaded log holds one of these per row, so they carry no
    per-instance __dict__.
    """

    student_id: str
    item_id: str
    correct: int
    timestamp: int

    def __post_init__(self):
        if not self.student_id:
            raise DataError("empty student_id")
        if not self.item_id:
            raise DataError("empty item_id")
        if self.correct not in (0, 1):
            raise DataError(f"correct must be 0 or 1, got {self.correct!r}")
        if self.timestamp < 0:
            raise DataError(f"negative timestamp {self.timestamp!r}")


class Dataset:
    """Responses grouped per student in time order (stable input-order tiebreak)."""

    def __init__(self, students: dict[str, list[InteractionRecord]], parse_errors=()):
        self.students = students
        self.parse_errors = tuple(parse_errors)

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord], parse_errors=()):
        grouped: dict[str, list[InteractionRecord]] = {}
        for rec in records:
            grouped.setdefault(rec.student_id, []).append(rec)
        for sid in grouped:
            # sorted() is stable, so equal timestamps keep input order
            grouped[sid] = sorted(grouped[sid], key=lambda r: r.timestamp)
        return cls(grouped, parse_errors)

    def __len__(self) -> int:
        return self.n_responses

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def n_items(self) -> int:
        return len({r.item_id for recs in self.students.values() for r in recs})

    @property
    def n_responses(self) -> int:
        return sum(len(recs) for recs in self.students.values())

    @property
    def percent_correct(self) -> float:
        n = self.n_responses
        if n == 0:
            return float("nan")
        k = sum(r.correct for recs in self.students.values() for r in recs)
        return k / n

    def all_records(self) -> list[InteractionRecord]:
        """Every record, student insertion order then time order."""
        return [r for recs in self.students.values() for r in recs]

    def summary(self) -> dict:
        n = self.n_responses
        return {
            "n_students": self.n_students,
            "n_items": self.n_items,
            "n_responses": n,
            "percent_correct": self.percent_correct if n else None,
            "n_parse_errors": len(self.parse_errors),
        }


_FIELDS = ("student_id", "item_id", "correct", "timestamp")


def _coerce_row(ids: dict, student_id, item_id, correct, timestamp) -> InteractionRecord:
    """One record from raw fields; `ids` maps each id seen so far to its one str."""
    c = int(str(correct).strip())
    ts = float(str(timestamp).strip())
    if not ts.is_integer():  # false for inf and nan as well
        raise DataError(f"timestamp {timestamp!r} is not an integer number of seconds")
    student_id, item_id = str(student_id), str(item_id)
    return InteractionRecord(ids.setdefault(student_id, student_id),
                             ids.setdefault(item_id, item_id), c, int(ts))


def load_interactions(path, format: str = "csv", strict: bool = False) -> Dataset:
    """Parse an interaction log.

    Malformed rows are skipped and recorded as (line_number, reason) pairs in
    Dataset.parse_errors; with strict=True any malformed row raises instead.
    Records of one student, or of one item, share a single id string: the
    parsers make a fresh str per row, which would otherwise be kept per record.
    """
    if format not in ("csv", "jsonl"):
        raise DataError(f"unknown format {format!r}")
    records: list[InteractionRecord] = []
    errors: list[tuple[int, str]] = []
    ids: dict[str, str] = {}

    def bad(lineno, reason):
        if strict:
            raise DataError(f"{path}: line {lineno}: {reason}")
        errors.append((lineno, reason))

    # utf-8-sig drops a byte-order mark, which would otherwise glue itself to
    # the first header field or JSON line
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if format == "csv":
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                return Dataset.from_records([])
            if [h.strip() for h in header] != list(_FIELDS):
                raise DataError(
                    f"{path}: expected header {','.join(_FIELDS)}, got {','.join(header)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    bad(lineno, f"expected 4 fields, got {len(row)}")
                    continue
                try:
                    records.append(_coerce_row(ids, *row))
                except (DataError, ValueError) as exc:
                    bad(lineno, str(exc))
        else:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise DataError("not a JSON object")
                    missing = [k for k in _FIELDS if k not in obj]
                    if missing:
                        raise DataError(f"missing keys: {', '.join(missing)}")
                    for key in ("student_id", "item_id"):
                        if isinstance(obj[key], bool) or not isinstance(obj[key], (str, int)):
                            raise DataError(f"{key} must be a string or an integer, "
                                            f"got {json.dumps(obj[key])}")
                    records.append(_coerce_row(ids, *(obj[k] for k in _FIELDS)))
                except (DataError, ValueError) as exc:
                    bad(lineno, str(exc))
    return Dataset.from_records(records, errors)


def write_interactions(dataset: Dataset, path, format: str = "csv") -> None:
    if format not in ("csv", "jsonl"):
        raise DataError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_FIELDS)
            for rec in dataset.all_records():
                writer.writerow([rec.student_id, rec.item_id, rec.correct, rec.timestamp])
        else:
            for rec in dataset.all_records():
                fh.write(
                    json.dumps(
                        {
                            "student_id": rec.student_id,
                            "item_id": rec.item_id,
                            "correct": rec.correct,
                            "timestamp": rec.timestamp,
                        }
                    )
                    + "\n"
                )


def preprocess(
    data: Dataset, min_responses: int = 5, max_attempts_per_item: int = 4
) -> Dataset:
    """Apply the retention rules, in this fixed order:

    1. per (student, item) pair keep only the most recent max_attempts_per_item
       attempts;
    2. drop students whose total retained responses fall below min_responses.

    Capping before filtering means repeat-heavy students are judged on what
    survives the cap.  The transform is idempotent.
    """
    if min_responses < 0 or max_attempts_per_item < 1:
        raise DataError("min_responses must be >= 0 and max_attempts_per_item >= 1")
    kept: dict[str, list[InteractionRecord]] = {}
    for sid, recs in data.students.items():
        counts: dict[str, int] = {}
        for rec in recs:
            counts[rec.item_id] = counts.get(rec.item_id, 0) + 1
        drop = {item: n - max_attempts_per_item for item, n in counts.items()}
        retained = []
        for rec in recs:  # time order; skip the earliest surplus attempts
            if drop[rec.item_id] > 0:
                drop[rec.item_id] -= 1
                continue
            retained.append(rec)
        if len(retained) >= min_responses:
            kept[sid] = retained
    return Dataset(kept, data.parse_errors)


@dataclass(frozen=True)
class ByStudentFraction:
    """Assign whole students to the train side with probability-free determinism:
    sorted ids are permuted by the seed and the first round(fraction*n) go to train."""

    fraction: float

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise DataError("fraction must be strictly between 0 and 1")


@dataclass(frozen=True)
class ByTimeCutoff:
    """Records with timestamp <= cutoff go to train, the rest to eval."""

    cutoff: float


def split_dataset(data: Dataset, policy, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Split into disjoint, covering (train, eval) datasets.

    Raises DataError when either side would be empty.
    """
    if isinstance(policy, ByStudentFraction):
        ids = sorted(data.students)
        if len(ids) < 2:
            raise DataError("need at least 2 students to split by student")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(ids))
        n_train = int(round(policy.fraction * len(ids)))
        if n_train == 0 or n_train == len(ids):
            raise DataError(
                f"fraction {policy.fraction} leaves an empty side for {len(ids)} students"
            )
        train_ids = {ids[i] for i in order[:n_train]}
        train = {s: recs for s, recs in data.students.items() if s in train_ids}
        evals = {s: recs for s, recs in data.students.items() if s not in train_ids}
        return Dataset(train), Dataset(evals)
    if isinstance(policy, ByTimeCutoff):
        train: dict[str, list[InteractionRecord]] = {}
        evals: dict[str, list[InteractionRecord]] = {}
        for sid, recs in data.students.items():
            before = [r for r in recs if r.timestamp <= policy.cutoff]
            after = [r for r in recs if r.timestamp > policy.cutoff]
            if before:
                train[sid] = before
            if after:
                evals[sid] = after
        if not train or not evals:
            raise DataError(f"time cutoff {policy.cutoff} leaves an empty side")
        return Dataset(train), Dataset(evals)
    raise DataError(f"unknown split policy {policy!r}")
