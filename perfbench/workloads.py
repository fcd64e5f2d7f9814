"""Workload definitions and the layer-to-end-to-end mapping.

Every workload is a closed loop with one client: one ``studyforge run`` at
a time, ``max_parallel: 1``, so one trial thread. Paths are relative to
the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: tuple[str, ...]
    # The benchmark's --seed is applied to these config keys. The surrogate
    # workloads keep their config's own study seed: which batch sizes TPE
    # converges to depends on the seed, and moved Adam steps per study by
    # 3x between seeds 0..7, which no trials_per_s bound could absorb.
    seed_keys: tuple[str, ...]
    why: str

    def run_overrides(self, seed: int) -> list[str]:
        seeded = (f"{key}={seed}" for key in self.seed_keys)
        return ["policy.max_parallel=1", *self.overrides, *seeded]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="surrogate-augment",
            config="configs/default.yaml",
            # 5 of the config's 20 epochs: the same mix of work per trial, in
            # repetitions short enough that a run holds several of them
            overrides=("epochs=5",),
            seed_keys=(),
            why="shipped default.yaml at 5 epochs: 30 TPE trials, all six augmentation "
            "parameters; apply_affine is most of the run, so batched augmentation shows here",
        ),
        Workload(
            name="surrogate-pruned",
            config="configs/pruned_surrogate.yaml",
            overrides=("policy.n_trials=300",),
            seed_keys=(),
            why="pruned_surrogate.yaml at 300 trials, no augmentation: MLP+Adam, TPE ask and "
            "fsynced journal writes, and the median pruner fires",
        ),
        Workload(
            name="tpe-sphere",
            config="perfbench/configs/tpe_sphere.yaml",
            overrides=(),
            seed_keys=("seed",),
            why="6-d sphere, 1000 TPE trials: tpe_suggest ~95% and fit_parzen ~70% of the run; "
            "the largest journal, so report_s is heaviest here",
        ),
        Workload(
            name="grid-sphere",
            config="perfbench/configs/grid_sphere.yaml",
            overrides=(),
            seed_keys=("seed",),
            why="4-d sphere, grid resolution 10 (10^4 cells), 300 trials: grid_enumerate is "
            "~85% of the run; the only workload that calls GridSampler",
        ),
    )
}

# Trials in the warm-up study that runs before anything is timed.
WARMUP_TRIALS = 2

END_TO_END = {
    "trials_per_s": "1/s",
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "command_ok_ratio": "ratio",
}

# name -> (unit, better, end-to-end metric it should move, workloads where it shows)
LAYER_METRICS = {
    "augment.apply_affine_calls": ("count", "lower", "trials_per_s", ["surrogate-augment"]),
    "augment.busy_s_per_trial": ("s", "lower", "trials_per_s", ["surrogate-augment"]),
    "augment.share": ("ratio", "lower", "trials_per_s", ["surrogate-augment"]),
    "surrogate.train_s_per_trial": ("s", "lower", "trials_per_s", ["surrogate-pruned", "surrogate-augment"]),
    "surrogate.step_us_p50": ("us", "lower", "trials_per_s", ["surrogate-pruned", "surrogate-augment"]),
    "surrogate.step_us_p99": ("us", "lower", "trials_per_s", ["surrogate-pruned", "surrogate-augment"]),
    "surrogate.steps_per_trial": ("count", "lower", "trials_per_s", ["surrogate-pruned", "surrogate-augment"]),
    "surrogate.adam_steps": ("count", "lower", "trials_per_s", ["surrogate-pruned", "surrogate-augment"]),
    "samplers.ask_ms_p50": ("ms", "lower", "trials_per_s", ["tpe-sphere", "surrogate-pruned"]),
    "samplers.ask_ms_p99": ("ms", "lower", "trials_per_s", ["tpe-sphere", "surrogate-pruned"]),
    "samplers.ask_ms_last_decile": ("ms", "lower", "trials_per_s", ["tpe-sphere", "surrogate-pruned"]),
    "samplers.fit_parzen_calls": ("count", "lower", "trials_per_s", ["tpe-sphere", "surrogate-pruned"]),
    "samplers.fit_parzen_busy_s": ("s", "lower", "trials_per_s", ["tpe-sphere", "surrogate-pruned"]),
    "samplers.grid_cells_per_ask": ("count", "lower", "trials_per_s", ["grid-sphere"]),
    "samplers.grid_ask_ms_p50": ("ms", "lower", "trials_per_s", ["grid-sphere"]),
    "study.rescan_calls": ("count", "lower", "trials_per_s", ["tpe-sphere"]),
    "study.rescan_busy_s": ("s", "lower", "trials_per_s", ["tpe-sphere"]),
    "pruning.should_prune_calls": ("count", "lower", "trials_per_s", ["surrogate-pruned"]),
    "pruning.busy_s": ("s", "lower", "trials_per_s", ["surrogate-pruned"]),
    "pruning.pruned_ratio": ("ratio", "higher", "trials_per_s", ["surrogate-pruned"]),
    "pruning.wasted_epoch_ratio": ("ratio", "lower", "trials_per_s", ["surrogate-pruned"]),
    "journal.records_per_trial": ("count", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.bytes_per_trial": ("B", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.fsync_calls": ("count", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.append_us_p50": ("us", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.append_us_p99": ("us", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.fsync_us_p50": ("us", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.fsync_share": ("ratio", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "journal.replay_s": ("s", "lower", "report_s", ["tpe-sphere"]),
    "reporting.write_s": ("s", "lower", "report_s", ["tpe-sphere", "surrogate-pruned"]),
    "orchestrator.coordinator_self_s_per_trial": ("s", "lower", "trials_per_s", ["surrogate-pruned", "grid-sphere"]),
    "orchestrator.build_data_s": ("s", "lower", "setup_s", ["surrogate-augment", "surrogate-pruned"]),
    "config.parse_s": ("s", "lower", "setup_s", ["surrogate-augment", "tpe-sphere"]),
    "setup.import_s": ("s", "lower", "setup_s", ["surrogate-augment", "tpe-sphere"]),
    "trace.overhead_ratio": ("ratio", "higher", "trials_per_s", ["surrogate-augment", "tpe-sphere"]),
}
