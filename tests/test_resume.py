"""Group commit and `run --resume`: which records are fsynced, and that a
single-worker run cut anywhere a crash or a power loss can cut it resumes
to the bytes of an uninterrupted run."""

import json
import os

import pytest

from studyforge import journal as journal_mod
from studyforge import orchestrator
from studyforge.config import ExperimentConfig, RunPolicy, SamplerSpec
from studyforge.errors import DivergenceError, JournalError
from studyforge.journal import (
    KIND_CHECKPOINT,
    KIND_INTERMEDIATE,
    KIND_META,
    KIND_TRIAL_END,
    KIND_TRIAL_START,
    Journal,
    read_records,
)
from studyforge.orchestrator import run_study
from studyforge.pruning import PrunerConfig
from studyforge.samplers import TpeConfig
from studyforge.study import SearchSpace, log_uniform, uniform
from studyforge.surrogate import SyntheticSpec

FSYNCED = (KIND_META, KIND_TRIAL_END, KIND_CHECKPOINT)


class CountingOs:
    """Stands in for ``journal.os``: counts fsyncs, and passes them on to the
    real call only when asked (the fault-injection runs skip the disk)."""

    def __init__(self, real_fsync=True):
        self.fsyncs = 0
        self.real_fsync = real_fsync

    def fsync(self, fd):
        self.fsyncs += 1
        if self.real_fsync:
            os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


@pytest.fixture
def counting_os(monkeypatch):
    fake = CountingOs()
    monkeypatch.setattr(journal_mod, "os", fake)
    return fake


def stepwise_objective(config):
    """A cheap stand-in for the surrogate, minimized: three reported steps
    per trial, so the median rule prunes; x above 0.85 diverges. Values are
    rounded to keep the lines, and so the number of cuts, short."""

    def objective(params, reporter, seed):
        x = params["x"]
        for step in range(3):
            if step == 1 and x > 0.85:
                raise DivergenceError(f"non-finite loss at epoch {step}")
            value = round((x - 0.3) ** 2 + 0.1 / (step + 1), 4)
            reporter(step, value)
        return value, None

    return objective


def stepwise_config(tmp_path, *, n_trials=6, stop_threshold=None, max_parallel=1):
    return ExperimentConfig(
        objective="quadratic-1d",
        space=SearchSpace({"x": uniform(0.0, 1.0)}),
        seed=35,
        output_dir=str(tmp_path / "out"),
        sampler=SamplerSpec(kind="tpe", tpe=TpeConfig(n_startup_trials=3)),
        pruner=PrunerConfig(warmup_steps=1, min_completed=2),
        policy=RunPolicy(
            n_trials=n_trials,
            save_threshold=0.06,
            stop_threshold=stop_threshold,
            max_parallel=max_parallel,
        ),
    )


def surrogate_config(tmp_path):
    return ExperimentConfig(
        objective="surrogate",
        space=SearchSpace({"lr": log_uniform(1e-7, 1e-3)}),
        seed=0,
        epochs=5,
        output_dir=str(tmp_path / "out"),
        sampler=SamplerSpec(kind="random"),
        pruner=PrunerConfig(warmup_steps=1, min_completed=2),
        policy=RunPolicy(n_trials=10, save_threshold=0.7),
        synthetic=SyntheticSpec(n_per_class=30),
    )


def line_ends(raw):
    """Byte offset just past each record's line."""
    ends, end = [], 0
    for line in raw.splitlines(keepends=True):
        end += len(line)
        ends.append(end)
    return ends


def crash_cuts(raw):
    """Every record boundary, and every byte after each fsynced record up to
    the next one: the file lengths a crash or a power loss can leave."""
    ends = line_ends(raw)
    kinds = [json.loads(line)["kind"] for line in raw.splitlines()]
    durable = [end for kind, end in zip(kinds, ends) if kind in FSYNCED]
    cuts = {0, *ends}
    for low, high in zip(durable, durable[1:]):
        cuts.update(range(low, high))
    return sorted(cuts)


class TestGroupCommit:
    def test_fsyncs_meta_trial_ends_and_checkpoints_only(self, tmp_path, counting_os):
        result = run_study(surrogate_config(tmp_path))
        kinds = [r["kind"] for r in read_records(result.journal_path)]
        states = {t.state.value for t in result.study.trials}
        assert {"pruned", "complete"} <= states
        assert kinds.count(KIND_CHECKPOINT) >= 1
        assert counting_os.fsyncs == 1 + kinds.count(KIND_TRIAL_END) + kinds.count(
            KIND_CHECKPOINT
        )
        assert counting_os.fsyncs < len(kinds)

    def test_every_record_is_flushed_before_the_next_append(self, tmp_path, counting_os):
        path = tmp_path / "study.jsonl"
        meta = {"space": {"x": {"kind": "uniform-float", "low": 0.0, "high": 1.0}}}
        appended = []
        with Journal(path, meta=dict(meta, direction="minimize", seed=0)) as journal:
            appended.append(read_records(path)[0])
            for kind, payload in [
                (KIND_TRIAL_START, {"trial_id": 0, "params": {"x": 0.5}}),
                (KIND_INTERMEDIATE, {"trial_id": 0, "step": 0, "value": 1.0}),
                (KIND_INTERMEDIATE, {"trial_id": 0, "step": 1, "value": 0.5}),
                (KIND_TRIAL_END, {"trial_id": 0, "state": "complete", "final_value": 0.5}),
                (KIND_CHECKPOINT, {"trial_id": 0, "value": 0.5}),
            ]:
                appended.append(journal.append(kind, **payload))
                assert read_records(path) == appended
        assert counting_os.fsyncs == 3


class TestResume:
    @pytest.fixture
    def stepwise(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "build_objective", stepwise_objective)
        fake = CountingOs(real_fsync=False)
        monkeypatch.setattr(journal_mod, "os", fake)
        return fake

    @pytest.fixture
    def ran(self, stepwise, monkeypatch):
        """The ids of the trials the stepwise objective runs, in order."""
        ran = []

        def objective(config):
            inner = stepwise_objective(config)

            def run(params, reporter, seed):
                ran.append(seed[1])
                return inner(params, reporter, seed)

            return run

        monkeypatch.setattr(orchestrator, "build_objective", objective)
        return ran

    def test_cut_anywhere_resumes_to_the_uninterrupted_bytes(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path)
        result = run_study(config)
        raw = result.journal_path.read_bytes()
        states = [t.state.value for t in result.study.trials]
        kinds = [r["kind"] for r in read_records(result.journal_path)]
        assert {"complete", "pruned", "failed"} <= set(states)
        assert kinds.count(KIND_CHECKPOINT) >= 2
        # a later trial past save_threshold but no better earns no checkpoint,
        # so a resume that forgot the best value would write one
        saved = [t for t in result.study.completed_trials() if t.final_value <= 0.06]
        assert len(saved) > kinds.count(KIND_CHECKPOINT)
        path = tmp_path / "cut.jsonl"
        for cut in crash_cuts(raw):
            path.write_bytes(raw[:cut])
            run_study(config, journal_path=path, resume=True)
            assert path.read_bytes() == raw, f"cut at byte {cut}"

    def test_failed_trial_ends_record_the_divergence_reason(self, tmp_path, stepwise):
        result = run_study(stepwise_config(tmp_path))
        ends = [r for r in read_records(result.journal_path) if r["kind"] == KIND_TRIAL_END]
        failed = [r for r in ends if r["state"] == "failed"]
        assert failed
        assert {r["reason"] for r in failed} == {"non-finite loss at epoch 1"}
        assert not [r for r in ends if r["state"] != "failed" and "reason" in r]

    def test_resume_fsyncs_the_cut(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path)
        raw = run_study(config).journal_path.read_bytes()
        ends = line_ends(raw)
        path = tmp_path / "cut.jsonl"
        path.write_bytes(raw[: ends[-1] - 2])  # a torn final trial-end
        stepwise.fsyncs = 0
        run_study(config, journal_path=path, resume=True)
        # the cut, the re-run trial's trial-end, and nothing else
        assert stepwise.fsyncs == 2
        assert path.read_bytes() == raw

    def test_finished_study_appends_nothing(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path)
        path = run_study(config).journal_path
        raw = path.read_bytes()
        result = run_study(config, resume=True)
        assert path.read_bytes() == raw
        assert len(result.study.trials) == config.policy.n_trials

    def test_stop_flag_is_restored_from_history(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path, n_trials=30, stop_threshold=0.04)
        result = run_study(config)
        raw = result.journal_path.read_bytes()
        assert len(result.study.trials) < 30
        resumed = run_study(config, resume=True)
        assert result.journal_path.read_bytes() == raw
        assert len(resumed.study.trials) == len(result.study.trials)

    def test_resume_without_a_journal_starts_the_study(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path)
        fresh = run_study(config).journal_path
        raw = fresh.read_bytes()
        fresh.unlink()
        run_study(config, resume=True)
        assert fresh.read_bytes() == raw

    def test_other_config_is_refused_and_left_untouched(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path)
        path = run_study(config).journal_path
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(JournalError, match="another config"):
            run_study(stepwise_config(tmp_path, n_trials=10), resume=True)
        assert path.read_bytes() == raw[:-5]

    def test_two_workers_resume_to_a_gapless_journal(self, tmp_path, stepwise):
        config = stepwise_config(tmp_path, n_trials=12, max_parallel=2)
        path = run_study(config).journal_path
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        result = run_study(config, resume=True)
        records = read_records(path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        ends = [r["trial_id"] for r in records if r["kind"] == KIND_TRIAL_END]
        assert sorted(ends) == list(range(12))
        assert len(result.study.trials) == 12

    def test_resume_parses_and_replays_the_journal_once(self, tmp_path, stepwise, monkeypatch):
        config = stepwise_config(tmp_path)
        path = run_study(config).journal_path
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        calls, replays = [], []
        real_parse = journal_mod._parse
        real_rebuild = orchestrator.study_from_records

        def counted(data):
            calls.append(len(data))
            return real_parse(data)

        def rebuild(records, save_threshold=None):
            replays.append(len(records))
            return real_rebuild(records, save_threshold)

        monkeypatch.setattr(journal_mod, "_parse", counted)
        monkeypatch.setattr(orchestrator, "study_from_records", rebuild)
        run_study(config, resume=True)
        assert calls == [len(raw) // 2]
        assert len(replays) == 1
        assert path.read_bytes() == raw

    def test_a_resume_reruns_only_a_last_trial_left_open(self, tmp_path, ran):
        """Cut after each record, a resume runs the trials from the open one,
        or from the one after the last trial-end: a cut before a due
        checkpoint writes it and reruns nothing."""
        config = stepwise_config(tmp_path)
        raw = run_study(config).journal_path.read_bytes()
        records = [json.loads(line) for line in raw.splitlines()]
        path = tmp_path / "cut.jsonl"
        for record, end in zip(records[1:], line_ends(raw)[1:]):
            path.write_bytes(raw[:end])
            ran.clear()
            run_study(config, journal_path=path, resume=True)
            assert path.read_bytes() == raw, f"cut after seq {record['seq']}"
            closed = record["kind"] in (KIND_TRIAL_END, KIND_CHECKPOINT)
            assert ran == list(range(record["trial_id"] + closed, config.policy.n_trials))

    def test_surrogate_cut_at_record_boundaries(self, tmp_path):
        config = surrogate_config(tmp_path)
        raw = run_study(config).journal_path.read_bytes()
        path = tmp_path / "cut.jsonl"
        for cut in [0, *line_ends(raw)]:
            path.write_bytes(raw[:cut])
            run_study(config, journal_path=path, resume=True)
            assert path.read_bytes() == raw, f"cut at byte {cut}"
