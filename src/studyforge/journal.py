"""Append-only JSON-lines journal with torn-write-tolerant replay.

Each record is one JSON object per line with a strictly increasing `seq`;
the first record is the study metadata. Trials follow one at a time: a
trial-start, its intermediates, a trial-end, and the checkpoint a complete
trial may earn. `apply` is this grammar's one transition: replay folds it
over the records, and a run passes each record through it before writing.
Every append is flushed before it returns, so a process crash loses
nothing. Only the records that close a unit of work (`study-meta`,
`trial-end`, `checkpoint`) are fsynced, and one fsync makes every earlier
byte durable: a power loss can drop only the records of the trial in
flight, which `run --resume` re-creates. Either way the file is a valid
prefix plus at most one torn tail line, which lacks its newline and which
replay ignores.
"""

from __future__ import annotations

import json
import json.scanner
import os
from pathlib import Path

from .config import parse_space
from .errors import JournalCorruptError, JournalError, StateError
from .study import COMPLETE, RUNNING, Study, TrialRecord, TrialState, meets_threshold

KIND_META = "study-meta"
KIND_TRIAL_START = "trial-start"
KIND_INTERMEDIATE = "intermediate"
KIND_TRIAL_END = "trial-end"
KIND_CHECKPOINT = "checkpoint"

_KINDS = (KIND_META, KIND_TRIAL_START, KIND_INTERMEDIATE, KIND_TRIAL_END, KIND_CHECKPOINT)
# group commit: the records that end a unit of work carry the fsync
_FSYNCED_KINDS = frozenset((KIND_META, KIND_TRIAL_END, KIND_CHECKPOINT))
_STATES = {state.value: state for state in TrialState}
# one JSON value from a given index, decoded as json.loads decodes it
_scan = json.scanner.make_scanner(json.JSONDecoder())
# study_from_records' default save_threshold: the journal does not hold it,
# so `best` and `report` do not know it; None is a config without one
THRESHOLD_UNKNOWN = object()


class Journal:
    """Writer handle that assigns sequence numbers. It takes no lock: its
    one writer is the orchestrator's serial trial loop.

    With ``meta`` a new journal is written; without it the existing file is
    reopened after cutting it back to its first ``keep`` durable records
    (all of them by default). ``contents`` is what `read_journal` returned
    for the file, when the caller has read it already.
    """

    def __init__(self, path, meta: dict | None = None, keep: int | None = None, contents=None):
        self.path = Path(path)
        self._next_seq = 0
        self._fh = None
        if meta is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self.append(KIND_META, **meta)
        else:
            raw, records, ends = contents or read_journal(self.path)
            self._next_seq = _repair_tail(self.path, raw, ends, keep)
            self._last_kind = records[self._next_seq - 1]["kind"] if self._next_seq else None
            self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, kind: str, **payload) -> dict:
        """Append one record, assigning the next sequence number."""
        record = {"seq": self._next_seq, "kind": kind}
        record.update(payload)
        if self._fh is None:
            raise JournalError("journal is closed")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        if kind in _FSYNCED_KINDS:
            os.fsync(self._fh.fileno())
        self._next_seq += 1
        self._last_kind = kind
        return record

    def apply_and_append(self, study: Study, save_threshold, kind: str, **payload) -> bool:
        """Pass the record through `apply`, then append it; True if a checkpoint is due."""
        record = {"seq": self._next_seq, "kind": kind, **payload}
        due = apply(study, record, self._last_kind, save_threshold)
        self.append(kind, **payload)
        return due

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _repair_tail(path: Path, raw: bytes, ends: list[int], keep: int | None = None) -> int:
    """Cut the file, whose bytes are ``raw`` with record ends ``ends``, back
    to its first ``keep`` durable records (default all), newline-terminated,
    and fsync the cut.

    Appending after a torn tail would glue the new record onto the garbage,
    and appending after a final record that lacks its newline would glue two
    records into one line; either way a read would drop records. Returns the
    number of records kept.
    """
    kept = len(ends[:keep])
    end = min(ends[kept - 1], len(raw)) if kept else 0
    with open(path, "r+b") as fh:
        fh.truncate(end)
        if end and raw[end - 1 : end] != b"\n":
            fh.seek(end)
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    return kept


def read_records(path) -> list[dict]:
    """Parse the journal, tolerating a torn final line.

    Only a last line without its newline can be torn. Any other unreadable
    or out-of-sequence record raises JournalCorruptError naming the
    expected sequence number.
    """
    return read_journal(path)[1]


def read_journal(path) -> tuple[bytes, list[dict], list[int]]:
    """The journal's bytes, its durable records (as `read_records`) and
    the byte offset just past each record's line."""
    raw = Path(path).read_bytes()
    return (raw, *_parse(raw))


def _parse(raw: bytes) -> tuple[list[dict], list[int]]:
    """The durable records and the byte offset just past each one's line
    (one past the end of ``raw`` for a final record without its newline)."""
    end = 0
    ends: list[int] = []
    lines = raw.split(b"\n")
    # drop trailing empty chunk from the final newline
    if lines and lines[-1] == b"":
        lines.pop()
    last = len(lines) - 1
    records: list[dict] = []
    for i, line in enumerate(lines):
        seq = len(records)
        try:
            text = line.decode("utf-8")
            try:
                record, stop = _scan(text, 0)
            except StopIteration:
                stop = -1
            if stop != len(text):
                # not one bare JSON value: json.loads gives the answer
                # (surrounding whitespace) or the error (anything else)
                record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("seq") != seq:
                raise ValueError(f"expected seq {seq}, got {record.get('seq')}")
            kind = record.get("kind")
            if kind not in _KINDS:
                raise ValueError(f"unknown kind {kind!r}")
            if seq == 0 and kind != KIND_META:
                raise ValueError("first record must be study-meta")
        except (ValueError, UnicodeDecodeError) as exc:
            if i == last and not raw.endswith(b"\n"):
                break  # torn write: a record's line is written whole, newline last
            raise JournalCorruptError(seq, str(exc)) from None
        records.append(record)
        end += len(line) + 1
        ends.append(end)
    return records, ends


def study_from_records(
    records: list[dict], save_threshold: float | None | object = THRESHOLD_UNKNOWN
) -> Study:
    """Rebuild the study as a fold of `apply` over the records; a trial left
    mid-flight becomes failed. The study-meta's space is parsed as the
    config parses its ``space``. A record that `apply` refuses, or that
    lacks a field it reads or holds one of the wrong type, raises
    JournalCorruptError naming it (the study-meta is seq 0). With the
    config's ``save_threshold``, as `run --resume` gives it, each due
    checkpoint must also be there unless its trial-end is the last record.
    """
    if not records or records[0]["kind"] != KIND_META:
        raise JournalCorruptError(0, "journal missing study-meta record")
    record = records[0]
    try:
        study = Study(parse_space(record["space"]), record["direction"], record["seed"])
        for i, record in enumerate(records[1:], 1):
            due = apply(study, record, records[i - 1]["kind"], save_threshold)
            if due and i + 1 < len(records) and records[i + 1]["kind"] != KIND_CHECKPOINT:
                raise ValueError(f"trial {record['trial_id']}'s due checkpoint is missing")
    # caught, not checked per record, so a clean replay pays nothing for it
    except KeyError as exc:
        raise JournalCorruptError(record["seq"], f"{record['kind']}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError, AttributeError, StateError) as exc:
        raise JournalCorruptError(record["seq"], f"{record['kind']}: {exc}") from None
    if study.trials and study.trials[-1].state is TrialState.RUNNING:
        study.trials[-1].state = TrialState.FAILED
    return study


def apply(study: Study, record: dict, after: str, save_threshold=THRESHOLD_UNKNOWN) -> bool:
    """Check a record that follows one of kind ``after`` and change ``study``
    by it. A record it refuses raises and leaves the study as it was.
    Returns whether a due checkpoint must come next, which takes a known
    ``save_threshold``; None makes no checkpoint due."""
    known = save_threshold is not THRESHOLD_UNKNOWN
    kind = record["kind"]
    if kind == KIND_TRIAL_START:
        trial_id = record["trial_id"]
        if type(trial_id) is not int or trial_id != len(study.trials):
            raise JournalCorruptError(record["seq"], f"trial-start id {trial_id!r} out of order")
        if trial_id and study.trials[-1].state is RUNNING:
            raise StateError(f"trial {trial_id - 1} is still running")
        study.start(record["params"])
    # with one trial open at a time, the study refuses an intermediate or
    # trial-end of any trial but the one started last
    elif kind == KIND_INTERMEDIATE:
        study.report_intermediate(record["trial_id"], record["step"], record["value"])
    elif kind == KIND_TRIAL_END:
        name = record["state"]
        state = _STATES.get(name) if isinstance(name, str) else None
        if state is None:
            raise JournalCorruptError(record["seq"], f"trial-end state {name!r} is not a trial state")
        if state is COMPLETE:
            if (metrics := record.get("metrics")) is not None:
                _check_metrics(metrics)  # before the tell changes the study
            trial = study.tell(record["trial_id"], record["final_value"])
            trial.metrics = metrics
            return known and checkpoint_due(study, trial, save_threshold)
        study.tell(record["trial_id"], state=state)
    else:  # a checkpoint, of the trial whose trial-end is just before it
        trial = study.trials[-1] if after == KIND_TRIAL_END else None
        if trial is None or trial.state is not COMPLETE:
            raise ValueError("does not follow a complete trial-end")
        written = {"seq": record["seq"], "kind": kind, **checkpoint_payload(trial)}
        if (key := differing_key(record, written)) is not None:
            raise ValueError(f"{key} is not trial {trial.trial_id}'s")
        if trial is not study.best:
            raise ValueError(f"trial {trial.trial_id} does not improve on the best")
        if known and not checkpoint_due(study, trial, save_threshold):
            raise ValueError(f"trial {trial.trial_id} does not meet the save threshold")
    return False


def checkpoint_due(study: Study, trial: TrialRecord, save_threshold: float | None) -> bool:
    """Whether a told trial earns a checkpoint: it is the study's best, so
    it improves on every earlier one, and meets ``save_threshold``. `apply`
    decides by it, and so does a resume whose last trial-end lacks one."""
    return trial is study.best and meets_threshold(study.direction, trial.final_value, save_threshold)


def checkpoint_payload(trial: TrialRecord) -> dict:
    """The checkpoint fields of a complete trial: what `run_study` writes
    and what replay requires of a checkpoint."""
    return {"trial_id": trial.trial_id, "value": trial.final_value, "best_params": trial.params}


def differing_key(got: dict, want: dict) -> str | None:
    """The first key one record lacks or holds as other JSON text than the
    other (`==` holds for 1 and True, and for objects in another order)."""
    for key in {**want, **got}:
        if key not in got or key not in want or json.dumps(got[key]) != json.dumps(want[key]):
            return key
    return None


def _check_metrics(metrics) -> None:
    """Refuse a trial-end's metrics unless shaped as the reports render them."""
    if not (
        isinstance(metrics, dict)
        and isinstance(metrics.get("confusion"), list)
        and all(isinstance(row, list) for row in metrics["confusion"])
        and isinstance(metrics.get("f1"), list)
        and type(metrics.get("macro_f1")) in (int, float)
    ):
        raise ValueError("metrics need a confusion list of lists, an f1 list and a macro_f1 number")


def resume_study(path) -> Study:
    """Reconstruct the study at the last durable record of the journal."""
    return study_from_records(read_records(path))

