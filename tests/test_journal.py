import json

import pytest

from studyforge.errors import JournalCorruptError, JournalError
from studyforge.journal import (
    KIND_CHECKPOINT,
    KIND_INTERMEDIATE,
    KIND_META,
    KIND_TRIAL_END,
    KIND_TRIAL_START,
    Journal,
    read_records,
    resume_study,
    study_from_records,
)
from studyforge.study import SearchSpace, TrialState, boolean, int_categorical, uniform

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
            journal.append(KIND_CHECKPOINT, trial_id=0, params=params, value=0.1)
        study = resume_study(path)
        assert len(study.trials) == 1
        assert study.trials[0].state is TrialState.COMPLETE
