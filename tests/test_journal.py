import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from studyforge import journal as journal_mod
from studyforge.cli import main
from studyforge.errors import JournalCorruptError, JournalError, StateError, ValidationError
from studyforge.journal import (
    KIND_CHECKPOINT,
    KIND_INTERMEDIATE,
    KIND_META,
    KIND_TRIAL_END,
    KIND_TRIAL_START,
    THRESHOLD_UNKNOWN,
    Journal,
    apply,
    read_records,
    resume_study,
    study_from_records,
)
from studyforge.study import (
    BOOLEAN,
    CHOICE,
    INT_CATEGORICAL,
    Distribution,
    SearchSpace,
    TrialState,
    boolean,
    int_categorical,
    log_uniform,
    uniform,
)

from conftest import make_study


def demo_space():
    return SearchSpace(
        {
            "x": uniform(0.0, 1.0),
            "batch_size": int_categorical([8, 16, 32]),
            "hflip": boolean(),
        }
    )


def meta_for(space, direction="minimize", seed=0):
    return {"space": space.to_dict(), "direction": direction, "seed": seed}


def write_demo_journal(path, *, complete=True):
    space = demo_space()
    with Journal(path, meta=meta_for(space)) as journal:
        journal.append(
            KIND_TRIAL_START,
            trial_id=0,
            params={"x": 0.25, "batch_size": 8, "hflip": True},
        )
        journal.append(KIND_INTERMEDIATE, trial_id=0, step=0, value=0.9)
        journal.append(KIND_INTERMEDIATE, trial_id=0, step=1, value=0.4)
        if complete:
            journal.append(
                KIND_TRIAL_END, trial_id=0, state="complete", final_value=0.4
            )
    return space


class TestJournalWriter:
    def test_meta_written_first_with_seq_zero(self, tmp_path):
        path = tmp_path / "study.jsonl"
        space = demo_space()
        with Journal(path, meta=meta_for(space, seed=7)):
            pass
        records = read_records(path)
        assert len(records) == 1
        assert records[0]["seq"] == 0
        assert records[0]["kind"] == KIND_META
        assert records[0]["seed"] == 7
        assert records[0]["space"] == space.to_dict()

    def test_sequences_strictly_increase(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with Journal(path, meta=meta_for(demo_space())) as journal:
            r1 = journal.append(KIND_TRIAL_START, trial_id=0, params={"x": 0.5})
            r2 = journal.append(KIND_INTERMEDIATE, trial_id=0, step=0, value=1.0)
        assert (r1["seq"], r2["seq"]) == (1, 2)
        assert [r["seq"] for r in read_records(path)] == [0, 1, 2]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "study.jsonl"
        with Journal(path, meta=meta_for(demo_space())):
            pass
        assert path.exists()

    def test_closed_journal_rejects_appends(self, tmp_path):
        path = tmp_path / "study.jsonl"
        journal = Journal(path, meta=meta_for(demo_space()))
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append(KIND_CHECKPOINT, trial_id=0)

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        with Journal(path) as journal:
            record = journal.append(KIND_CHECKPOINT, trial_id=0, params={"x": 0.25})
        assert record["seq"] == 5
        assert [r["seq"] for r in read_records(path)] == list(range(6))

    def test_reopen_after_a_cut_at_every_byte_keeps_the_durable_prefix(self, tmp_path):
        # covers a torn tail and a final record that lacks its newline
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        raw = path.read_bytes()
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            durable = read_records(path)
            with Journal(path) as journal:
                if durable:
                    record = journal.append(KIND_CHECKPOINT, trial_id=0)
                else:
                    record = journal.append(KIND_META, **meta_for(demo_space()))
            assert read_records(path) == durable + [record], f"cut at byte {cut}"


class TestReadRecords:
    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        records = read_records(path)
        assert [r["kind"] for r in records] == [
            KIND_META,
            KIND_TRIAL_START,
            KIND_INTERMEDIATE,
            KIND_INTERMEDIATE,
            KIND_TRIAL_END,
        ]
        assert records[1]["params"] == {"x": 0.25, "batch_size": 8, "hflip": True}

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        whole = read_records(path)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 5, "kind": "trial-sta')
        assert read_records(path) == whole

    def test_torn_final_line_binary_garbage(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        whole = read_records(path)
        with open(path, "ab") as fh:
            fh.write(bytes([0xFF, 0xFE, 0x00, 0x80]))
        assert read_records(path) == whole

    @pytest.mark.parametrize(
        "line", [b'{"seq": 5, "kind": "trial-sta', b'{"seq": 5, "kind": "bogus"}', b""]
    )
    def test_bad_last_line_with_its_newline_is_not_torn(self, tmp_path, line):
        # a crash cuts a line short of its newline; a whole bad line is corrupt
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        with open(path, "ab") as fh:
            fh.write(line + b"\n")
        with pytest.raises(JournalCorruptError) as exc_info:
            read_records(path)
        assert exc_info.value.seq == 5

    def test_mid_file_corruption_names_expected_seq(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"{broken json"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorruptError) as exc_info:
            read_records(path)
        assert exc_info.value.seq == 2

    def test_mid_file_sequence_gap_is_corruption(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        lines = path.read_bytes().split(b"\n")
        record = json.loads(lines[1])
        record["seq"] = 9
        lines[1] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorruptError) as exc_info:
            read_records(path)
        assert exc_info.value.seq == 1

    def test_unknown_kind_is_corruption(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = json.dumps({"seq": 2, "kind": "note"}).encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorruptError) as exc_info:
            read_records(path)
        assert exc_info.value.seq == 2

    def test_non_object_line_is_corruption(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"[1, 2, 3]"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalCorruptError):
            read_records(path)

    def test_first_record_must_be_meta(self, tmp_path):
        path = tmp_path / "study.jsonl"
        start = {"seq": 0, "kind": KIND_TRIAL_START, "trial_id": 0, "params": {}}
        meta = {"seq": 1, "kind": KIND_META}
        path.write_text(json.dumps(start) + "\n" + json.dumps(meta) + "\n")
        with pytest.raises(JournalCorruptError) as exc_info:
            read_records(path)
        assert exc_info.value.seq == 0

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "study.jsonl"
        path.write_bytes(b"")
        assert read_records(path) == []


class TestStudyReconstruction:
    def test_resume_restores_completed_trial(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        study = resume_study(path)
        assert len(study.trials) == 1
        trial = study.trials[0]
        assert trial.state is TrialState.COMPLETE
        assert trial.final_value == 0.4
        assert trial.intermediates == [(0, 0.9), (1, 0.4)]
        assert study.best_trial().trial_id == 0

    def test_resume_marks_running_trial_failed(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path, complete=False)
        study = resume_study(path)
        assert study.trials[0].state is TrialState.FAILED
        assert study.trials[0].intermediates == [(0, 0.9), (1, 0.4)]

    def test_resume_revives_type_exact_choices(self, tmp_path):
        path = tmp_path / "study.jsonl"
        write_demo_journal(path)
        study = resume_study(path)
        params = study.trials[0].params
        assert type(params["batch_size"]) is int
        assert type(params["hflip"]) is bool
        study.space.validate_assignment(params)

    def test_resume_restores_pruned_state(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with Journal(path, meta=meta_for(demo_space())) as journal:
            journal.append(
                KIND_TRIAL_START,
                trial_id=0,
                params={"x": 0.5, "batch_size": 16, "hflip": False},
            )
            journal.append(KIND_INTERMEDIATE, trial_id=0, step=0, value=0.2)
            journal.append(KIND_TRIAL_END, trial_id=0, state="pruned")
        study = resume_study(path)
        assert study.trials[0].state is TrialState.PRUNED
        assert study.trials[0].final_value is None

    def test_resumed_study_matches_in_memory_twin(self, tmp_path):
        path = tmp_path / "study.jsonl"
        space = demo_space()
        twin = make_study(space, direction="maximize", seed=3)
        with Journal(path, meta=meta_for(space, "maximize", seed=3)) as journal:
            for trial_id, (x, value) in enumerate([(0.2, 0.7), (0.9, 0.9), (0.4, 0.8)]):
                params = {"x": x, "batch_size": 8, "hflip": False}
                journal.append(KIND_TRIAL_START, trial_id=trial_id, params=params)
                journal.append(
                    KIND_TRIAL_END, trial_id=trial_id, state="complete", final_value=value
                )
                from studyforge.study import TrialRecord

                twin.trials.append(TrialRecord(trial_id=trial_id, params=params))
                twin.tell(trial_id, value)
        study = resume_study(path)
        assert study.direction == twin.direction
        assert study.seed == twin.seed
        assert study.best_trial().trial_id == twin.best_trial().trial_id
        assert [t.final_value for t in study.trials] == [
            t.final_value for t in twin.trials
        ]

    def test_trial_start_out_of_order_is_corruption(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with Journal(path, meta=meta_for(demo_space())) as journal:
            journal.append(
                KIND_TRIAL_START,
                trial_id=4,
                params={"x": 0.5, "batch_size": 8, "hflip": False},
            )
        with pytest.raises(JournalCorruptError):
            resume_study(path)

    def test_empty_records_rejected(self):
        with pytest.raises(JournalCorruptError) as exc_info:
            study_from_records([])
        assert exc_info.value.seq == 0

    def test_checkpoint_records_do_not_disturb_state(self, tmp_path):
        path = tmp_path / "study.jsonl"
        space = demo_space()
        with Journal(path, meta=meta_for(space)) as journal:
            params = {"x": 0.1, "batch_size": 8, "hflip": False}
            journal.append(KIND_TRIAL_START, trial_id=0, params=params)
            journal.append(KIND_TRIAL_END, trial_id=0, state="complete", final_value=0.1)
            journal.append(KIND_CHECKPOINT, trial_id=0, value=0.1, best_params=params)
        study = resume_study(path)
        assert len(study.trials) == 1
        assert study.trials[0].state is TrialState.COMPLETE


def journal_with(path, start_params=None, end_state="complete"):
    """A demo journal, minimized, of two checkpointed trials and two more.
    Trial 0's trial-start (seq 1) carries ``start_params``, its trial-end
    (seq 2) ``end_state``, and its checkpoint is seq 3; trial 1 is seqs 4-6.
    Trial 2 (seqs 7-8) completes no better and earns no checkpoint, and
    trial 3 starts at seq 9 with trial 2's params and is left open."""
    params = {"x": 0.5, "batch_size": 8, "hflip": False}
    better = {"x": 0.25, "batch_size": 16, "hflip": True}
    worse = {"x": 0.75, "batch_size": 8, "hflip": True}
    with Journal(path, meta=meta_for(demo_space())) as journal:
        journal.append(KIND_TRIAL_START, trial_id=0, params=start_params or params)
        journal.append(KIND_TRIAL_END, trial_id=0, state=end_state, final_value=0.5)
        journal.append(KIND_CHECKPOINT, trial_id=0, value=0.5, best_params=params)
        journal.append(KIND_TRIAL_START, trial_id=1, params=better)
        journal.append(KIND_TRIAL_END, trial_id=1, state="complete", final_value=0.25)
        journal.append(KIND_CHECKPOINT, trial_id=1, value=0.25, best_params=better)
        journal.append(KIND_TRIAL_START, trial_id=2, params=worse)
        journal.append(KIND_TRIAL_END, trial_id=2, state="complete", final_value=0.75)
        journal.append(KIND_TRIAL_START, trial_id=3, params=worse)
    return path


BAD_REPLAYS = {
    "extra parameter": (
        {"start_params": {"x": 0.5, "batch_size": 8, "hflip": False, "bogus": 1}},
        1,
        "extra=['bogus']",
    ),
    "missing parameter": (
        {"start_params": {"x": 0.5, "hflip": False}},
        1,
        "missing=['batch_size']",
    ),
    "params not an object": ({"start_params": [0.5, 8, False]}, 1, "missing="),
    "non-numeric float": (
        {"start_params": {"x": "half", "batch_size": 8, "hflip": False}},
        1,
        "parameter 'x'",
    ),
    "unknown trial state": ({"end_state": "weird"}, 2, "'weird' is not a trial state"),
}


def edited_journal(path, seq, edit):
    """`journal_with`'s journal after ``edit`` changed record ``seq`` in place."""
    journal_with(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[seq])
    edit(record)
    lines[seq] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path


# hand edits whose fields replay reads without checking: each raised a
# TypeError or KeyError from deep inside the replay before it was caught
HAND_EDITS = {
    "space entry not an object": (0, lambda r: r["space"].update(bogus=1), "study-meta: "),
    "trial-start without params": (1, lambda r: r.pop("params"), "missing field 'params'"),
    "trial-end without final_value": (
        2,
        lambda r: r.pop("final_value"),
        "missing field 'final_value'",
    ),
    "string trial_id": (2, lambda r: r.update(trial_id="0"), "trial-end: "),
    # fields that int(), float() or == would take as valid: only the
    # study's own type checks refuse them
    "string final_value": (2, lambda r: r.update(final_value="0.5"), "final value must be finite"),
    "boolean final_value": (2, lambda r: r.update(final_value=True), "got True"),
    "boolean trial_id": (2, lambda r: r.update(trial_id=False), "unknown trial id False"),
    "boolean trial-start id": (1, lambda r: r.update(trial_id=False), "trial-start id False"),
    "string seed": (0, lambda r: r.update(seed="0"), "seed must be"),
    "boolean seed": (0, lambda r: r.update(seed=True), "seed must be"),
    "string step": (
        2,
        lambda r: r.update(kind=KIND_INTERMEDIATE, step="1", value=0.5),
        "step must be a non-negative integer",
    ),
    "string intermediate value": (
        2,
        lambda r: r.update(kind=KIND_INTERMEDIATE, step=1, value="0.5"),
        "intermediate: ",
    ),
    "boolean step": (
        2,
        lambda r: r.update(kind=KIND_INTERMEDIATE, step=True, value=0.5),
        "step must be a non-negative integer, got True",
    ),
    "boolean intermediate value": (
        2,
        lambda r: r.update(kind=KIND_INTERMEDIATE, step=1, value=True),
        "intermediate value must be finite, got True",
    ),
    # params outside the space: replay refuses them with the check Study.ask makes
    "x below its low": (1, lambda r: r["params"].update(x=-1), "parameter 'x'"),
    "boolean x": (1, lambda r: r["params"].update(x=True), "parameter 'x'"),
    "string x": (1, lambda r: r["params"].update(x="0.5"), "parameter 'x'"),
    "string batch_size": (1, lambda r: r["params"].update(batch_size="s"), "'batch_size'"),
    "null batch_size": (1, lambda r: r["params"].update(batch_size=None), "'batch_size'"),
    "list batch_size": (1, lambda r: r["params"].update(batch_size=[]), "'batch_size'"),
    "boolean batch_size": (1, lambda r: r["params"].update(batch_size=True), "'batch_size'"),
    "integer hflip": (1, lambda r: r["params"].update(hflip=1), "parameter 'hflip'"),
    # a space spec the config would refuse: replay parses it as the config does
    "boolean low": (
        0,
        lambda r: r["space"]["x"].update(low=False),
        "study-meta: space.x.low: expected a number, got False",
    ),
    "boolean high": (
        0,
        lambda r: r["space"]["x"].update(high=True),
        "study-meta: space.x.high: expected a number, got True",
    ),
    "string high": (
        0,
        lambda r: r["space"]["x"].update(high="1"),
        "study-meta: space.x.high: expected a number, got '1'",
    ),
    "choices on a uniform-float": (
        0,
        lambda r: r["space"]["x"].update(choices=[1, 2]),
        "study-meta: space.x.choices: unknown key",
    ),
    # metrics the reports would fail to render
    "metrics without confusion": (
        2,
        lambda r: r.update(metrics={"f1": [0.5], "macro_f1": 0.5}),
        "trial-end: metrics need",
    ),
    "metrics not an object": (2, lambda r: r.update(metrics=[1, 2]), "trial-end: metrics need"),
    # the grammar run_study writes: one trial open at a time, and after a
    # complete trial-end only the checkpoint that trial earned
    "trial-start while another trial is open": (
        2,
        lambda r: r.update(kind=KIND_TRIAL_START, trial_id=1, params={"x": 0.5}),
        "trial-start: trial 0 is still running",
    ),
    "checkpoint after a checkpoint": (
        4,
        lambda r: r.update(kind=KIND_CHECKPOINT, trial_id=0, value=0.5),
        "checkpoint: does not follow a complete trial-end",
    ),
    "checkpoint value": (3, lambda r: r.update(value=-5.0), "checkpoint: value is not trial 0's"),
    "checkpoint best_params": (
        3,
        lambda r: r["best_params"].update(x=0.25),
        "checkpoint: best_params is not trial 0's",
    ),
    "boolean checkpoint trial_id": (
        6,
        lambda r: r.update(trial_id=True),
        "checkpoint: trial_id is not trial 1's",
    ),
    "checkpoint without trial_id": (3, lambda r: r.pop("trial_id"), "checkpoint: trial_id is"),
    "null checkpoint trial_id": (3, lambda r: r.update(trial_id=None), "checkpoint: trial_id is"),
    "list checkpoint trial_id": (3, lambda r: r.update(trial_id=[0]), "checkpoint: trial_id is"),
    "string checkpoint trial_id": (3, lambda r: r.update(trial_id="0"), "checkpoint: trial_id is"),
    # a newline-terminated last line was written whole, so it is not torn
    "last record's kind is bogus": (9, lambda r: r.update(kind="bogus"), "unknown kind 'bogus'"),
    # a checkpoint exactly as its trial would write it, but the trial is no best
    "checkpoint of a trial that does not improve": (
        9,
        lambda r: r.update(
            kind=KIND_CHECKPOINT, trial_id=2, value=0.75, best_params=r.pop("params")
        ),
        "checkpoint: trial 2 does not improve on the best",
    ),
}


class TestReplayRejects:
    """A record that parses but cannot be replayed names its sequence number,
    and the commands that replay it report one line, not a traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_REPLAYS))
    def test_study_from_records_names_the_record(self, tmp_path, case):
        kwargs, seq, message = BAD_REPLAYS[case]
        path = journal_with(tmp_path / "study.jsonl", **kwargs)
        with pytest.raises(JournalCorruptError) as exc_info:
            resume_study(path)
        assert exc_info.value.seq == seq
        assert message in str(exc_info.value)

    @pytest.mark.parametrize("command", ["best", "report"])
    @pytest.mark.parametrize("case", sorted(BAD_REPLAYS))
    def test_commands_print_a_one_line_diagnostic(self, tmp_path, capsys, case, command):
        kwargs, seq, message = BAD_REPLAYS[case]
        path = journal_with(tmp_path / "study.jsonl", **kwargs)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: record seq={seq}: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("command", ["best", "report"])
    @pytest.mark.parametrize("case", sorted(HAND_EDITS))
    def test_hand_edited_field_names_its_record(self, tmp_path, capsys, case, command):
        seq, edit, message = HAND_EDITS[case]
        path = edited_journal(tmp_path / "study.jsonl", seq, edit)
        with pytest.raises(JournalCorruptError) as exc_info:
            resume_study(path)
        assert exc_info.value.seq == seq
        assert message in str(exc_info.value)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: record seq={seq}: ")
        assert captured.err.count("\n") == 1


def snapshot(study):
    """Every field of a study that a record can change."""
    trials = [
        (t.trial_id, dict(t.params), t.state, t.final_value, list(t.intermediates), t.metrics)
        for t in study.trials
    ]
    seen = study.observations
    best = study.best and study.best.trial_id
    peers = {step: list(values) for step, values in study.peers.items()}
    return trials, peers, best, seen.n_complete, seen.trial_ids(range(len(seen)))


def applied(records, save_threshold=THRESHOLD_UNKNOWN):
    """A demo study after applying the records, each after the one before it."""
    study = make_study(demo_space())
    after = KIND_META
    for record in records:
        apply(study, record, after, save_threshold)
        after = record["kind"]
    return study, after


PARAMS = {"x": 0.5, "batch_size": 8, "hflip": False}
OPEN_TRIAL = [
    {"seq": 1, "kind": KIND_TRIAL_START, "trial_id": 0, "params": PARAMS},
    {"seq": 2, "kind": KIND_INTERMEDIATE, "trial_id": 0, "step": 0, "value": 0.5},
]


class TestApply:
    """`apply` is the journal's one transition: a run passes each record
    through it before writing it, and replay folds it over a journal."""

    @pytest.mark.parametrize(
        "record",
        [
            {
                "kind": KIND_TRIAL_END,
                "state": "complete",
                "final_value": 0.4,
                "metrics": {"confusion": [[1]], "f1": [1.0], "macro_f1": "high"},
            },
            {"kind": KIND_TRIAL_END, "state": "complete", "final_value": "0.4"},
            {"kind": KIND_TRIAL_END, "state": "running"},
            {"kind": KIND_TRIAL_END, "state": "complete"},
            {"kind": KIND_INTERMEDIATE, "step": 0, "value": 0.4},
            {"kind": KIND_INTERMEDIATE, "step": 1, "value": True},
            {"kind": KIND_TRIAL_START, "params": PARAMS},
            {"kind": KIND_CHECKPOINT, "value": 0.4, "best_params": PARAMS},
        ],
    )
    def test_a_refused_record_leaves_the_study_as_it_was(self, record):
        study, after = applied(OPEN_TRIAL)
        before = snapshot(study)
        trial_id = 1 if record["kind"] == KIND_TRIAL_START else 0
        with pytest.raises((ValueError, KeyError, StateError, JournalError)):
            apply(study, {"seq": 3, **record, "trial_id": trial_id}, after, 0.5)
        assert snapshot(study) == before
        end = {"seq": 3, "kind": KIND_TRIAL_END, "trial_id": 0, "state": "complete"}
        assert apply(study, {**end, "final_value": 0.4}, after, 0.5)
        assert study.best is study.trials[0]

    @pytest.mark.parametrize(
        "value, save_threshold, due",
        [
            (0.4, 0.5, True),
            (0.4, 0.4, True),
            (0.6, 0.5, False),
            (0.4, None, False),
            (0.4, THRESHOLD_UNKNOWN, False),
        ],
    )
    def test_a_complete_trial_end_says_whether_its_checkpoint_is_due(
        self, value, save_threshold, due
    ):
        study, after = applied(OPEN_TRIAL)
        end = {"seq": 3, "kind": KIND_TRIAL_END, "trial_id": 0, "state": "complete"}
        assert apply(study, {**end, "final_value": value}, after, save_threshold) is due

    def test_a_trial_no_better_than_the_best_is_not_due(self):
        end = {"kind": KIND_TRIAL_END, "state": "complete"}
        study, after = applied(
            [
                *OPEN_TRIAL,
                {"seq": 3, **end, "trial_id": 0, "final_value": 0.2},
                {"seq": 4, "kind": KIND_TRIAL_START, "trial_id": 1, "params": PARAMS},
            ]
        )
        assert not apply(study, {"seq": 5, **end, "trial_id": 1, "final_value": 0.3}, after, 0.5)

    def test_pruned_and_failed_trial_ends_are_never_due(self):
        for state in ("pruned", "failed"):
            study, after = applied(OPEN_TRIAL)
            end = {"seq": 3, "kind": KIND_TRIAL_END, "trial_id": 0, "state": state}
            assert apply(study, end, after, 0.5) is False

    def test_the_journal_writes_no_record_the_study_refuses(self, tmp_path):
        path = tmp_path / "study.jsonl"
        study = make_study(demo_space())
        with Journal(path, meta=meta_for(demo_space())) as journal:
            journal.apply_and_append(study, 0.5, KIND_TRIAL_START, trial_id=0, params=PARAMS)
            with pytest.raises(ValueError, match="metrics need"):
                journal.apply_and_append(
                    study,
                    0.5,
                    KIND_TRIAL_END,
                    trial_id=0,
                    state="complete",
                    final_value=0.4,
                    metrics={"f1": []},
                )
            # the next seq is still free, and a checkpoint must follow a trial-end
            end = {"trial_id": 0, "state": "complete", "final_value": 0.4}
            assert journal.apply_and_append(study, 0.5, KIND_TRIAL_END, **end)
            checkpoint = {"trial_id": 0, "value": 0.4, "best_params": PARAMS}
            journal.apply_and_append(study, 0.5, KIND_CHECKPOINT, **checkpoint)
        records = read_records(path)
        kinds = [KIND_META, KIND_TRIAL_START, KIND_TRIAL_END, KIND_CHECKPOINT]
        assert [r["kind"] for r in records] == kinds
        assert snapshot(study_from_records(records, 0.5)) == snapshot(study)

    def test_a_reopened_journal_knows_its_last_kind(self, tmp_path):
        """A checkpoint appended after reopening a journal that ends at a
        trial-end follows it, as it must; after a checkpoint it may not."""
        path = tmp_path / "study.jsonl"
        study = make_study(demo_space())
        end = {"trial_id": 0, "state": "complete", "final_value": 0.4}
        checkpoint = {"trial_id": 0, "value": 0.4, "best_params": PARAMS}
        with Journal(path, meta=meta_for(demo_space())) as journal:
            journal.apply_and_append(study, 0.5, KIND_TRIAL_START, trial_id=0, params=PARAMS)
            journal.apply_and_append(study, 0.5, KIND_TRIAL_END, **end)
        with Journal(path) as journal:
            journal.apply_and_append(study, 0.5, KIND_CHECKPOINT, **checkpoint)
        with Journal(path) as journal:
            with pytest.raises(ValueError, match="does not follow a complete trial-end"):
                journal.apply_and_append(study, 0.5, KIND_CHECKPOINT, **checkpoint)
        assert len(read_records(path)) == 4


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# what the sweep sets a field to, besides deleting it
SWEEP_VALUES = ("s", True, False, None, [], {}, -1, 1.5, 1e30, math.nan)
DELETE = object()


def sweep_edits(records):
    """(seq, field path, value) for every field of every record, and every
    field up to two levels inside an object (so each key of each entry of
    study-meta's space): deleted (DELETE) or set to each of SWEEP_VALUES."""
    for seq, record in enumerate(records):
        for path in field_paths(record, depth=3):
            for value in (DELETE, *SWEEP_VALUES):
                yield seq, path, value


def field_paths(node, depth, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict) and depth > 1:
            yield from field_paths(value, depth - 1, prefix + (key,))


def edit_field(record, path, value):
    record = copy.deepcopy(record)
    target = record
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return record


class TestFaultInjectionSweep:
    def test_every_single_field_edit_replays_or_is_refused_in_one_line(self, tmp_path, capsys):
        """`best` and `report` on each single-field edit of a 6-trial
        quadratic.yaml journal exit 0 or print one `error: ` line and exit 1.
        No sweep value is a float in [0, 1], so every edit of a trial-start's
        params leaves the space and must be refused, as must a boolean seed,
        a space spec key that is deleted or set to anything but a number,
        and any edit of a checkpoint: it must be what its trial earned. So
        must a later checkpoint once an earlier trial-end's final_value is -1,
        as its trial is then not the best."""
        run_dir = tmp_path / "run"
        config = str(CONFIG_DIR / "quadratic.yaml")
        overrides = ["--set", "policy.n_trials=6", "--set", f"output_dir={run_dir}"]
        overrides += ["--set", "policy.save_threshold=0.5"]
        assert main(["run", config, *overrides]) == 0
        lines = (run_dir / "journal.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        # two checkpoints, neither the last record
        checkpoints = [r["seq"] for r in records if r["kind"] == KIND_CHECKPOINT]
        assert len(checkpoints) == 2 and checkpoints[-1] < len(records) - 1
        path = tmp_path / "edited.jsonl"
        commands = (["best", str(path)], ["report", str(path), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        must_refuse, must_refuse_later, wrong = 0, 0, []
        for seq, field, value in sweep_edits(records):
            edited = list(lines)
            edited[seq] = json.dumps(edit_field(records[seq], field, value))
            path.write_text("\n".join(edited) + "\n")
            # deleted (DELETE is an object), not an int or float, or NaN
            not_a_number = type(value) not in (int, float) or math.isnan(value)
            refuse = (
                (records[seq]["kind"] == KIND_TRIAL_START and field[0] == "params")
                or records[seq]["kind"] == KIND_CHECKPOINT
                or (field == ("seed",) and type(value) is bool)
                or (len(field) == 3 and field[0] == "space" and not_a_number)
            )
            # quadratic values are >= 0, so at -1 a trial takes the best from a
            # later checkpoint's trial (its own checkpoint fails on its value)
            steals_best = (
                records[seq]["kind"] == KIND_TRIAL_END
                and field == ("final_value",)
                and value == -1
                and seq < checkpoints[-1]
                and seq + 1 not in checkpoints
            )
            must_refuse += refuse
            must_refuse_later += steals_best
            for command in commands:
                status = main(command)
                err = capsys.readouterr().err
                ok = status == 0 or (
                    status == 1 and err.startswith("error: ") and err.count("\n") == 1
                )
                if refuse:
                    ok = ok and status == 1 and err.startswith(f"error: record seq={seq}: ")
                if steals_best:
                    ok = ok and status == 1 and "does not improve on the best" in err
                if not ok:
                    wrong.append((command[0], seq, field, value, status, err))
        # 6 trials x (params and params.x) x 11 edits, the two boolean seeds,
        # space.x's kind, low and high x 8 edits that are not numbers, and
        # 2 checkpoints x (seq, kind, trial_id, value, best_params and
        # best_params.x) x 11 edits
        assert must_refuse == 6 * 2 * 11 + 2 + 3 * 8 + 2 * 6 * 11
        # trial 1's final_value: trial 0's checkpoint comes before it, and
        # trial 2's after it
        assert must_refuse_later == 1
        assert wrong == []


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["1", " 2.5 ", "nan", "-inf", "1e400"]),
)


def twins(value):
    """Values equal to ``value`` under == but of another JSON type."""
    out = []
    if isinstance(value, (bool, int)) or (isinstance(value, float) and value.is_integer()):
        out = [int(value), float(value)]
        if value in (0, 1):
            out.append(bool(value))
    return [v for v in out if type(v) is not type(value)]


@st.composite
def discrete_dists(draw):
    kind = draw(st.sampled_from([INT_CATEGORICAL, CHOICE, BOOLEAN]))
    if kind == BOOLEAN:
        return boolean()
    # no NaN: it equals no choice, so a list of NaNs would leave no choices
    items = st.integers(-3, 3) if kind == INT_CATEGORICAL else SCALARS.filter(lambda c: c == c)
    choices = draw(st.lists(items, min_size=1, max_size=4))
    # duplicate-free as the space requires: 1, 1.0 and True are one choice
    unique = []
    for c in choices:
        if not any(c == u for u in unique):
            unique.append(c)
    return Distribution(kind, choices=tuple(unique))


@st.composite
def spaces_and_params(draw):
    n = draw(st.integers(1, 4))
    entries = {}
    for j in range(n):
        entries[f"p{j}"] = draw(
            st.one_of(st.just(uniform(0.0, 1.0)), st.just(log_uniform(0.01, 1.0)), discrete_dists())
        )
    space = SearchSpace(entries)
    params = {}
    for name in draw(st.permutations(list(entries))):
        dist = entries[name]
        options = [SCALARS, st.lists(st.integers(), max_size=2), st.just(10**400)]
        if dist.is_discrete:
            options.append(st.sampled_from(dist.choices))
            options.append(st.sampled_from([t for c in dist.choices for t in twins(c)] or [None]))
        params[name] = draw(st.one_of(*options))
    return space, params


class TestReplayChecksParamsAsAskDoes:
    @settings(max_examples=300, deadline=None)
    @given(spaces_and_params())
    def test_a_trial_start_replays_exactly_when_its_params_are_in_the_space(self, case):
        space, params = case
        meta = {"seq": 0, "kind": KIND_META, **meta_for(space)}
        start = {"seq": 1, "kind": KIND_TRIAL_START, "trial_id": 0, "params": params}
        # the records as a journal file holds them
        records = [json.loads(json.dumps(record)) for record in (meta, start)]
        params = records[1]["params"]
        try:
            space.validate_assignment(params)
        except ValidationError:
            with pytest.raises(JournalCorruptError) as exc_info:
                study_from_records(records)
            assert exc_info.value.seq == 1
            return
        replayed = study_from_records(records).trials[0].params
        assert list(replayed) == list(params)
        for name, value in params.items():
            assert type(replayed[name]) is type(value)
            assert replayed[name] == value


def old_parse(raw):
    """`_parse` as it was before its fast path: one json.loads per line,
    with only a last line that lacks its newline dropped as torn."""
    end, ends, records = 0, [], []
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("seq") != len(records):
                raise ValueError(f"expected seq {len(records)}, got {record.get('seq')}")
            if record.get("kind") not in journal_mod._KINDS:
                raise ValueError(f"unknown kind {record.get('kind')!r}")
            if len(records) == 0 and record["kind"] != KIND_META:
                raise ValueError("first record must be study-meta")
        except (ValueError, UnicodeDecodeError) as exc:
            if i == len(lines) - 1 and not raw.endswith(b"\n"):
                break
            raise JournalCorruptError(len(records), str(exc)) from None
        records.append(record)
        end += len(line) + 1
        ends.append(end)
    return records, ends


@st.composite
def journal_bytes(draw):
    """Journal-like bytes: numbered records, some of them wrapped in
    whitespace, a BOM, trailing data, cut short, or replaced by garbage."""
    lines = []
    for seq in range(draw(st.integers(0, 5))):
        kind = KIND_META if seq == 0 else draw(st.sampled_from([KIND_TRIAL_START, "note"]))
        text = json.dumps({"seq": draw(st.sampled_from([seq, seq, seq, seq + 1])), "kind": kind})
        text = draw(
            st.sampled_from(
                [
                    text,
                    text,
                    " " + text,
                    text + " \t",
                    text + "\r",
                    "\ufeff" + text,
                    text + " {}",
                    text + "x",
                    text[: len(text) // 2],
                    "",
                    "5",
                    "[1]",
                    '"s"',
                    "{",
                    "NaN",
                ]
            )
        )
        line = text.encode("utf-8")
        if draw(st.integers(0, 9)) == 0:
            line += b"\xff"
        lines.append(line)
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


class TestParseFastPath:
    @settings(max_examples=400, deadline=None)
    @given(journal_bytes())
    def test_records_and_errors_match_json_loads_per_line(self, raw):
        try:
            expected = old_parse(raw)
        except JournalCorruptError as exc:
            with pytest.raises(JournalCorruptError) as exc_info:
                journal_mod._parse(raw)
            assert (exc_info.value.seq, str(exc_info.value)) == (exc.seq, str(exc))
            return
        assert journal_mod._parse(raw) == expected
