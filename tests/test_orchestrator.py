import hashlib
import json
import threading

import numpy as np
import pytest

from studyforge import orchestrator
from studyforge.augment import write_pgm
from studyforge.config import (
    ExperimentConfig,
    RunPolicy,
    SamplerSpec,
    config_hash,
    direction_for_objective,
    dump_config,
    parse_config,
)
from studyforge.errors import ValidationError
from studyforge.journal import read_records, resume_study
from studyforge.manifest import LABELS, MANIFEST_HEADER
from studyforge.orchestrator import build_surrogate_data, run_study
from studyforge.pruning import PrunerConfig
from studyforge.study import SearchSpace, TrialState, log_uniform, uniform
from studyforge.surrogate import SyntheticSpec, class_template


def quadratic_config(tmp_path, *, n_trials=6, sampler=None, policy=None, seed=0):
    return ExperimentConfig(
        objective="quadratic-1d",
        space=SearchSpace({"x": uniform(0.0, 1.0)}),
        seed=seed,
        output_dir=str(tmp_path / "out"),
        sampler=sampler or SamplerSpec(kind="random"),
        policy=policy or RunPolicy(n_trials=n_trials),
    )


def surrogate_config(tmp_path, *, space=None, epochs=2, policy=None, pruner=None, seed=0):
    return ExperimentConfig(
        objective="surrogate",
        space=space or SearchSpace({"lr": log_uniform(1e-4, 1e-3)}),
        seed=seed,
        epochs=epochs,
        output_dir=str(tmp_path / "out"),
        sampler=SamplerSpec(kind="random"),
        pruner=pruner,
        policy=policy or RunPolicy(n_trials=2),
        synthetic=SyntheticSpec(n_per_class=30),
    )


class TestRunPolicy:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            RunPolicy(n_trials=0)
        with pytest.raises(ValidationError):
            RunPolicy(max_parallel=0)

    def test_threshold_order_for_maximize(self):
        RunPolicy(save_threshold=0.9, stop_threshold=0.99).validate_for_direction("maximize")
        with pytest.raises(ValidationError):
            RunPolicy(save_threshold=0.99, stop_threshold=0.9).validate_for_direction(
                "maximize"
            )

    def test_threshold_order_for_minimize(self):
        RunPolicy(save_threshold=0.1, stop_threshold=0.01).validate_for_direction("minimize")
        with pytest.raises(ValidationError):
            RunPolicy(save_threshold=0.01, stop_threshold=0.1).validate_for_direction(
                "minimize"
            )

    def test_single_or_missing_thresholds_always_valid(self):
        RunPolicy().validate_for_direction("maximize")
        RunPolicy(save_threshold=0.5).validate_for_direction("minimize")
        RunPolicy(stop_threshold=0.5).validate_for_direction("maximize")

    def test_contradictory_thresholds_are_refused_when_the_config_is_built(self, tmp_path):
        # maximizing wants stop >= save, minimizing stop <= save
        with pytest.raises(ValidationError, match="^stop_threshold must be >= save_threshold$"):
            surrogate_config(tmp_path, policy=RunPolicy(save_threshold=0.99, stop_threshold=0.9))
        with pytest.raises(ValidationError, match="^stop_threshold must be <= save_threshold$"):
            quadratic_config(tmp_path, policy=RunPolicy(save_threshold=0.01, stop_threshold=0.1))
        quadratic_config(tmp_path, policy=RunPolicy(save_threshold=0.99, stop_threshold=0.9))


class TestDirectionForObjective:
    def test_known_objectives(self):
        assert direction_for_objective("surrogate") == "maximize"
        for name in ("sphere", "quadratic-1d", "rosenbrock-2d"):
            assert direction_for_objective(name) == "minimize"

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            direction_for_objective("mystery")


class TestRunStudyBenchmark:
    def test_runs_exactly_n_trials(self, tmp_path):
        config = quadratic_config(tmp_path, n_trials=6)
        result = run_study(config)
        records = read_records(result.journal_path)
        starts = [r for r in records if r["kind"] == "trial-start"]
        ends = [r for r in records if r["kind"] == "trial-end"]
        assert len(starts) == 6 and len(ends) == 6
        assert all(r["state"] == "complete" for r in ends)
        assert len(result.study.trials) == 6

    def test_meta_record_carries_run_identity(self, tmp_path):
        config = quadratic_config(tmp_path, seed=11)
        result = run_study(config)
        meta = read_records(result.journal_path)[0]
        assert meta["kind"] == "study-meta"
        assert meta["direction"] == "minimize"
        assert meta["seed"] == 11
        assert meta["config_hash"] == config_hash(config)
        assert meta["space"] == config.space.to_dict()

    def test_best_is_minimum_of_completed(self, tmp_path):
        result = run_study(quadratic_config(tmp_path, n_trials=8))
        values = [t.final_value for t in result.study.completed_trials()]
        assert result.best is not None
        assert result.best.final_value == min(values)

    def test_journal_replays_to_identical_best(self, tmp_path):
        result = run_study(quadratic_config(tmp_path, n_trials=8))
        resumed = resume_study(result.journal_path)
        assert resumed.best_trial().trial_id == result.best.trial_id
        assert resumed.best_trial().final_value == result.best.final_value
        assert [t.state for t in resumed.trials] == [t.state for t in result.study.trials]

    def test_stop_threshold_halts_after_first_qualifying_trial(self, tmp_path):
        # every quadratic value on [0, 1] is <= 0.49, so a stop at 1.0
        # must end the study after one trial
        policy = RunPolicy(n_trials=10, stop_threshold=1.0)
        result = run_study(quadratic_config(tmp_path, policy=policy))
        assert len(result.study.trials) == 1

    def test_checkpoints_gate_on_save_threshold_and_improvement(self, tmp_path):
        policy = RunPolicy(n_trials=20, save_threshold=0.05)
        result = run_study(quadratic_config(tmp_path, policy=policy))
        records = read_records(result.journal_path)
        checkpoints = [r for r in records if r["kind"] == "checkpoint"]
        assert checkpoints, "expected at least one checkpoint for a 20-trial run"
        values = [r["value"] for r in checkpoints]
        assert all(v <= 0.05 for v in values)
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        best_params = checkpoints[-1]["best_params"]
        assert best_params == result.best.params

    def test_no_checkpoints_without_save_threshold(self, tmp_path):
        result = run_study(quadratic_config(tmp_path, n_trials=5))
        records = read_records(result.journal_path)
        assert not [r for r in records if r["kind"] == "checkpoint"]

    def test_grid_exhaustion_stops_early_without_error(self, tmp_path):
        config = quadratic_config(
            tmp_path,
            sampler=SamplerSpec(kind="grid", resolution=3),
            policy=RunPolicy(n_trials=10),
        )
        result = run_study(config)
        assert len(result.study.trials) == 3
        xs = sorted(t.params["x"] for t in result.study.trials)
        assert xs == [0.0, 0.5, 1.0]

    def test_two_workers_complete_all_trials_with_gapless_journal(self, tmp_path):
        policy = RunPolicy(n_trials=12, max_parallel=2)
        result = run_study(quadratic_config(tmp_path, policy=policy))
        records = read_records(result.journal_path)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert len([r for r in records if r["kind"] == "trial-end"]) == 12
        resumed = resume_study(result.journal_path)
        assert len(resumed.completed_trials()) == 12

    def test_any_max_parallel_runs_serially_to_the_same_records(self, tmp_path, monkeypatch):
        def no_threads(thread):
            raise AssertionError(f"run_study started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        journals = []
        for max_parallel in (1, 2):
            config = surrogate_config(
                tmp_path,
                space=SearchSpace({"lr": log_uniform(1e-7, 1e-3)}),
                epochs=5,
                pruner=PrunerConfig(warmup_steps=1, min_completed=2),
                policy=RunPolicy(n_trials=10, save_threshold=0.7, max_parallel=max_parallel),
            )
            journals.append(read_records(run_study(config).journal_path))
        serial, parallel = journals
        kinds = {r["kind"] for r in serial}
        states = {r["state"] for r in serial if r["kind"] == "trial-end"}
        assert {"intermediate", "checkpoint"} <= kinds and {"pruned", "complete"} <= states
        assert parallel[1:] == serial[1:]
        assert {k for k in serial[0] if serial[0][k] != parallel[0][k]} == {"config_hash"}

    def test_explicit_journal_path_wins(self, tmp_path):
        path = tmp_path / "elsewhere" / "log.jsonl"
        result = run_study(quadratic_config(tmp_path), journal_path=path)
        assert result.journal_path == path
        assert path.exists()

    def test_single_worker_rerun_is_byte_identical(self, tmp_path):
        config = quadratic_config(tmp_path, n_trials=6)
        first = run_study(config).journal_path.read_bytes()
        second = run_study(config).journal_path.read_bytes()
        assert first == second


class TestRunStudySurrogate:
    def test_trial_end_carries_metrics(self, tmp_path):
        result = run_study(surrogate_config(tmp_path))
        ends = [
            r
            for r in read_records(result.journal_path)
            if r["kind"] == "trial-end" and r["state"] == "complete"
        ]
        assert ends
        for record in ends:
            metrics = record["metrics"]
            assert len(metrics["confusion"]) == 2
            assert len(metrics["f1"]) == 2
            assert 0.0 <= metrics["macro_f1"] <= 1.0

    def test_study_holds_the_metrics_it_journals(self, tmp_path):
        result = run_study(surrogate_config(tmp_path))
        replayed = resume_study(result.journal_path)
        kept = [t.metrics for t in result.study.trials]
        assert kept == [t.metrics for t in replayed.trials]
        assert any(metrics is not None for metrics in kept)

    def test_intermediates_cover_every_epoch(self, tmp_path):
        config = surrogate_config(tmp_path, epochs=3)
        result = run_study(config)
        records = read_records(result.journal_path)
        for trial in result.study.completed_trials():
            steps = [
                r["step"]
                for r in records
                if r["kind"] == "intermediate" and r["trial_id"] == trial.trial_id
            ]
            assert steps == [1, 2, 3]

    def test_divergent_trials_fail_and_study_continues(self, tmp_path):
        import numpy as np

        config = surrogate_config(
            tmp_path,
            space=SearchSpace({"lr": log_uniform(1e199, 1e201)}),
            epochs=1,
            policy=RunPolicy(n_trials=2),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_study(config)
        assert [t.state for t in result.study.trials] == [
            TrialState.FAILED,
            TrialState.FAILED,
        ]
        assert result.best is None

    def test_pruning_produces_pruned_trials(self, tmp_path):
        # wide lr range: slow learners sit near chance accuracy while fast
        # ones reach 1.0, so the median rule has something to cut
        config = surrogate_config(
            tmp_path,
            space=SearchSpace({"lr": log_uniform(1e-7, 1e-3)}),
            epochs=5,
            pruner=PrunerConfig(warmup_steps=1, min_completed=2),
            policy=RunPolicy(n_trials=10),
        )
        result = run_study(config)
        states = [t.state for t in result.study.trials]
        assert TrialState.PRUNED in states
        assert TrialState.COMPLETE in states
        records = read_records(result.journal_path)
        pruned_ids = [
            t.trial_id for t in result.study.trials if t.state is TrialState.PRUNED
        ]
        for trial_id in pruned_ids:
            end = next(
                r
                for r in records
                if r["kind"] == "trial-end" and r["trial_id"] == trial_id
            )
            assert end["state"] == "pruned"
            assert "final_value" not in end
            steps = [
                r
                for r in records
                if r["kind"] == "intermediate" and r["trial_id"] == trial_id
            ]
            assert steps, "pruned trial must have reported at least once"

    def test_pruning_disabled_never_prunes(self, tmp_path):
        config = surrogate_config(
            tmp_path,
            space=SearchSpace({"lr": log_uniform(1e-7, 1e-3)}),
            epochs=5,
            policy=RunPolicy(n_trials=10),
        )
        result = run_study(config)
        assert all(t.state is not TrialState.PRUNED for t in result.study.trials)

    def test_pruner_in_code_and_round_trip_run_identically(self, tmp_path):
        config = surrogate_config(
            tmp_path,
            space=SearchSpace({"lr": log_uniform(1e-7, 1e-3)}),
            epochs=5,
            pruner=PrunerConfig(warmup_steps=1, min_completed=2),
            policy=RunPolicy(n_trials=10),
        )
        first = run_study(config)
        in_code = first.journal_path.read_bytes()
        assert any(t.state is TrialState.PRUNED for t in first.study.trials)
        second = run_study(parse_config(dump_config(config)))
        assert second.journal_path == first.journal_path
        assert second.journal_path.read_bytes() == in_code


class TestBuildSurrogateData:
    def test_binary_task_uses_two_classes(self, tmp_path):
        config = surrogate_config(tmp_path)
        data = build_surrogate_data(config)
        assert data.n_classes == 2
        assert data.image_side == config.synthetic.image_side

    def test_multiclass_task_uses_four_classes(self, tmp_path):
        config = ExperimentConfig(
            objective="surrogate",
            space=SearchSpace({"lr": log_uniform(1e-4, 1e-3)}),
            task="multiclass",
            output_dir=str(tmp_path / "out"),
            synthetic=SyntheticSpec(n_per_class=10),
        )
        data = build_surrogate_data(config)
        assert data.n_classes == 4


MANIFEST_RUN_YAML = """\
objective: surrogate
task: {task}
seed: 1
epochs: 2
output_dir: out
space:
  lr: {{kind: log-uniform-float, low: 1.0e-4, high: 1.0e-2}}
sampler: {{kind: random}}
policy: {{n_trials: 3}}
data: {{manifest: data/manifest.csv, seed: 2}}
synthetic: {{image_side: 12}}
"""


def write_pgm_manifest(root):
    """20x20 single-image studies (12, 8, 6, 5 per label) plus one lateral
    scan per label whose image file does not exist."""
    (root / "images").mkdir(parents=True)
    rng = np.random.default_rng(0)
    rows = [",".join(MANIFEST_HEADER)]
    for c, (label, size) in enumerate(zip(LABELS, (12, 8, 6, 5))):
        template = class_template(c, len(LABELS), 20)
        for i in range(size):
            rel = f"images/c{c}_{i}.pgm"
            write_pgm(root / rel, np.clip(template + rng.normal(0.0, 0.3, (20, 20)), 0.0, 1.0))
            rows.append(f'c{c}_{i},{rel},"{label}",1')
        rows.append(f'c{c}_lat,images/lateral_{c}.pgm,"{label}",2')
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")


class TestManifestRun:
    @pytest.mark.parametrize(
        "task, class_counts, digest",
        [
            (
                "binary",
                ([8, 8], [3, 3], [1, 1]),
                "4791e57044723ae600004e569180a464dac2d0b9c64f966a8277c7b512645e9d",
            ),
            (
                "multiclass",
                ([8, 5, 4, 4], [3, 2, 1, 1], [1, 1, 1, 0]),
                "0c9f5cc7a6181797fbb0f9ccafc631fce0260cb6bc4f931f7fa2a162902c8657",
            ),
        ],
    )
    def test_split_and_journal_are_pinned(self, tmp_path, monkeypatch, task, class_counts, digest):
        write_pgm_manifest(tmp_path / "data")
        # relative paths: config_hash covers output_dir and data.manifest
        monkeypatch.chdir(tmp_path)
        config = parse_config(MANIFEST_RUN_YAML.format(task=task))
        data = build_surrogate_data(config)
        n_classes = len(class_counts[0])
        counts = tuple(
            np.bincount(y, minlength=n_classes).tolist()
            for y in (data.train_y, data.val_y, data.test_y)
        )
        assert counts == class_counts
        assert data.n_classes == n_classes
        assert data.train_x.shape[1:] == (12, 12) and data.image_side == 12
        result = run_study(config)
        assert [t.state for t in result.study.trials] == [TrialState.COMPLETE] * 3
        assert hashlib.sha256(result.journal_path.read_bytes()).hexdigest() == digest


class TestConfigHash:
    def test_equal_configs_share_a_hash(self, tmp_path):
        a = quadratic_config(tmp_path)
        b = quadratic_config(tmp_path)
        assert config_hash(a) == config_hash(b)

    def test_manifest_counts_by_its_bytes_not_its_path(self, tmp_path, monkeypatch):
        write_pgm_manifest(tmp_path / "data")
        monkeypatch.chdir(tmp_path)
        yaml_text = MANIFEST_RUN_YAML.format(task="binary")
        plain = parse_config(yaml_text)
        dotted = parse_config(yaml_text.replace("data/manifest.csv", "./data/manifest.csv"))
        assert plain.data.manifest != dotted.data.manifest
        assert config_hash(plain) == config_hash(dotted)

    def test_two_cohorts_at_one_path_hash_apart(self, tmp_path, monkeypatch):
        write_pgm_manifest(tmp_path / "data")
        monkeypatch.chdir(tmp_path)
        config = parse_config(MANIFEST_RUN_YAML.format(task="binary"))
        manifest = tmp_path / "data" / "manifest.csv"
        before = config_hash(config)
        rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join(rows[:-3]) + "\n")
        assert config_hash(config) != before

    def test_seed_changes_the_hash(self, tmp_path):
        assert config_hash(quadratic_config(tmp_path, seed=0)) != config_hash(
            quadratic_config(tmp_path, seed=1)
        )
