"""Study runner: ask -> objective -> report/prune -> tell, with journaling.

Trials run one at a time in one loop that owns the study and the journal,
so each ask sees every earlier trial's outcome and every run of a config
writes the same journal bytes. The loop applies the config's ``RunPolicy``:
its trial budget, and its save and stop thresholds, which it reads against
the best trial the study keeps. `journal.checkpoint_due` decides each
checkpoint, for the loop, for a resume and for replay.

A resumed run replays the journal once, reruns a last trial left in
flight or writes its missing due checkpoint, and goes on; per-trial RNG
streams are keyed on [seed, trial_id, lane], so a run that is interrupted
and resumed writes the same bytes as one that is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import journal as journal_mod
from .augment import read_pgm, resize_to
from .config import ExperimentConfig, RunPolicy, config_hash  # noqa: F401 (RunPolicy is re-exported)
from .errors import (
    DivergenceError,
    ExhaustedSearchError,
    JournalCorruptError,
    JournalError,
    TrialPruned,
)
from .journal import Journal, checkpoint_due, read_journal, study_from_records
from .manifest import TASK_CLASSES, load_manifest, select_cohort, task_label
from .pruning import should_prune
from .samplers import make_sampler
from .study import Study, TrialRecord, TrialState, create_study, meets_threshold
from .surrogate import (
    SplitArrays,
    benchmark_objective,
    make_synthetic_dataset,
    split_arrays,
    train_and_evaluate,
)


@dataclass
class StudyResult:
    study: Study
    best: TrialRecord | None
    journal_path: Path


# objective callable: (params, reporter, rng_seed) -> (value, metrics|None)
Objective = Callable[[dict, Callable[[int, float], None], list], tuple[float, dict | None]]


def load_manifest_arrays(config: ExperimentConfig) -> SplitArrays:
    """Build train/val/test rasters from a manifest of PGM files."""
    data_cfg = config.data
    manifest_path = Path(data_cfg.manifest)
    split = select_cohort(
        load_manifest(manifest_path), config.task, data_cfg.seed, data_cfg.ratios
    )
    base = manifest_path.parent
    side = config.synthetic.image_side
    classes = TASK_CLASSES[config.task]

    def rasters(group):
        xs = np.array([resize_to(read_pgm(base / e.image_path), side) for e in group])
        ys = np.array([classes.index(task_label(e, config.task)) for e in group], dtype=int)
        return xs, ys

    train_x, train_y = rasters(split.train)
    val_x, val_y = rasters(split.val)
    test_x, test_y = rasters(split.test)
    return SplitArrays(train_x, train_y, val_x, val_y, test_x, test_y, side, len(classes))


def build_surrogate_data(config: ExperimentConfig) -> SplitArrays:
    if config.data is not None:
        return load_manifest_arrays(config)
    images, labels = make_synthetic_dataset(config.synthetic, len(TASK_CLASSES[config.task]))
    return split_arrays(images, labels, seed=config.synthetic.seed)


def build_objective(config: ExperimentConfig) -> Objective:
    if config.objective == "surrogate":
        data = build_surrogate_data(config)

        def objective(params, reporter, seed):
            report = train_and_evaluate(
                params, data, epochs=config.epochs, reporter=reporter, seed=seed
            )
            metrics = {
                "confusion": report.confusion.tolist(),
                "f1": [float(v) for v in report.f1_per_class],
                "macro_f1": report.macro_f1,
            }
            return report.final_accuracy, metrics

        return objective

    name = config.objective

    def objective(params, reporter, seed):
        return benchmark_objective(name, params), None

    return objective


def _open_journal(path: Path, meta: dict, config: ExperimentConfig, resume: bool):
    """A fresh journal, or with ``resume`` the existing one and the study it
    replays to, which refuses a bad record before anything is cut. An open
    last trial is cut back to its trial-start and left out of the study; a
    due checkpoint missing after the last trial-end is written."""
    contents = read_journal(path) if resume and path.exists() else None
    records = contents[1] if contents else []
    if not records:
        # build the study first: a seed it refuses leaves the old journal as it was
        study = create_study(config.space, config.direction, config.seed)
        return Journal(path, meta=meta), study
    if records[0].get("config_hash") != meta["config_hash"]:
        raise JournalError(
            f"{path} was written by another config (config_hash "
            f"{str(records[0].get('config_hash'))[:12]}, this config {meta['config_hash'][:12]})"
        )
    study = study_from_records(records, config.policy.save_threshold)
    # the study is rebuilt from study-meta: it must be what this config writes
    key = journal_mod.differing_key(records[0], {"seq": 0, "kind": journal_mod.KIND_META, **meta})
    if key is not None:
        raise JournalCorruptError(0, f"study-meta: {key} differs from this config's")
    keep, last = len(records), records[-1]["kind"]
    if last in (journal_mod.KIND_TRIAL_START, journal_mod.KIND_INTERMEDIATE):
        # the open trial's records: its trial-start and one per intermediate
        keep -= 1 + len(study.trials.pop().intermediates)
    journal = Journal(path, keep=keep, contents=contents)
    if last == journal_mod.KIND_TRIAL_END:
        trial = study.trials[-1]
        if checkpoint_due(study, trial, config.policy.save_threshold):
            journal.append(journal_mod.KIND_CHECKPOINT, **journal_mod.checkpoint_payload(trial))
    return journal, study


def run_study(config: ExperimentConfig, journal_path=None, resume: bool = False) -> StudyResult:
    """Execute the configured study end to end, journaling every event.

    With ``resume`` an existing journal written by the same config is
    continued instead of started over; a journal from another config is
    refused and left as it is.
    """
    direction = config.direction
    policy = config.policy
    sampler = make_sampler(
        config.sampler.kind,
        tpe_config=config.sampler.tpe,
        resolution=config.sampler.resolution,
    )
    objective = build_objective(config)

    out_dir = Path(config.output_dir)
    journal_path = Path(journal_path) if journal_path else out_dir / "journal.jsonl"
    meta = {
        "space": config.space.to_dict(),
        "direction": direction,
        "seed": config.seed,
        "config_hash": config_hash(config),
    }

    journal, study = _open_journal(journal_path, meta, config, resume)

    with journal:
        # the best meets stop_threshold exactly when some complete trial does
        while len(study.trials) < policy.n_trials and not (
            study.best is not None
            and meets_threshold(direction, study.best.final_value, policy.stop_threshold)
        ):
            try:
                trial = study.ask(sampler)
            except ExhaustedSearchError:
                break
            trial_id = trial.trial_id
            journal.append(journal_mod.KIND_TRIAL_START, trial_id=trial_id, params=trial.params)

            def reporter(step, value):
                study.report_intermediate(trial_id, step, value)
                journal.append(
                    journal_mod.KIND_INTERMEDIATE, trial_id=trial_id, step=step, value=value
                )
                if config.pruner is not None and should_prune(
                    study, trial_id, step, config.pruner
                ):
                    raise TrialPruned()

            try:
                value, metrics = objective(trial.params, reporter, [study.seed, trial_id, 1])
            except TrialPruned:
                study.tell(trial_id, state=TrialState.PRUNED)
                end = {"state": TrialState.PRUNED.value}
            except DivergenceError as exc:
                study.tell(trial_id, state=TrialState.FAILED)
                end = {"state": TrialState.FAILED.value, "reason": str(exc)}
            else:
                value = float(value)
                study.tell(trial_id, value).metrics = metrics
                end = {"state": TrialState.COMPLETE.value, "final_value": value}
                if metrics is not None:
                    end["metrics"] = metrics
            journal.append(journal_mod.KIND_TRIAL_END, trial_id=trial_id, **end)
            if checkpoint_due(study, trial, policy.save_threshold):
                journal.append(journal_mod.KIND_CHECKPOINT, **journal_mod.checkpoint_payload(trial))

    return StudyResult(study=study, best=study.best, journal_path=journal_path)
