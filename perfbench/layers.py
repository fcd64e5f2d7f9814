"""Per-layer metrics from the spans of one traced run.

A span's layer is the first part of its name (``augment.apply_affine`` is
in ``augment``). Busy time sums durations; a layer's own time sums the
self times of its spans, so nested calls into other layers are not
counted twice.
"""

from __future__ import annotations

import math
import statistics

from tracer import END, NAME, SIZE, START, self_times

TRAIN_SPANS = {
    "surrogate.train_and_evaluate",
    "surrogate.mlp_forward",
    "surrogate.batch_cross_entropy",
    "surrogate.mlp_backward",
    "surrogate.adam_step",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return ordered[int(rank) - 1]


def _durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _minibatch_steps(spans) -> list[float]:
    """Forward + loss + backward + Adam of each minibatch: from the start of
    the training forward pass to the end of the Adam step that follows it."""
    steps, forward_start = [], None
    for s in spans:
        if s[NAME] == "surrogate.mlp_forward":
            forward_start = s[START]
        elif s[NAME] == "surrogate.adam_step" and forward_start is not None:
            steps.append(s[END] - forward_start)
            forward_start = None
    return steps


def run_metrics(spans, wall_s: float, facts: dict) -> dict[str, float]:
    """Metrics of one traced ``studyforge run``; ``facts`` come from its journal."""
    trials = facts["trials"]
    own = self_times(spans)
    layer_self: dict[str, float] = {}
    train_self = 0.0
    for s, t in zip(spans, own):
        layer = s[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        if s[NAME] in TRAIN_SPANS:
            train_self += t

    asks = [s[END] - s[START] for s in spans if s[NAME].startswith("samplers.ask.")]
    last_decile = asks[len(asks) - max(1, len(asks) // 10) :]
    grid_asks = _durations(spans, "samplers.ask.grid")
    grid_cells = sum(s[SIZE] for s in spans if s[NAME] == "samplers.grid_enumerate")
    rescans = _durations(spans, "study.completed_trials") + _durations(
        spans, "samplers.trial_observations"
    )
    steps = _minibatch_steps(spans)
    appends = _durations(spans, "journal.append")
    fsyncs = _durations(spans, "journal.fsync")
    fit_parzen = _durations(spans, "samplers.fit_parzen")
    prune = _durations(spans, "pruning.should_prune")
    us, ms = 1e6, 1e3
    return {
        "augment.apply_affine_calls": len(_durations(spans, "augment.apply_affine")),
        "augment.busy_s_per_trial": layer_self.get("augment", 0.0) / trials,
        "augment.share": layer_self.get("augment", 0.0) / wall_s,
        "surrogate.train_s_per_trial": train_self / trials,
        "surrogate.step_us_p50": percentile(steps, 50) * us,
        "surrogate.step_us_p99": percentile(steps, 99) * us,
        "surrogate.steps_per_trial": len(steps) / trials,
        "surrogate.adam_steps": len(_durations(spans, "surrogate.adam_step")),
        "samplers.ask_ms_p50": percentile(asks, 50) * ms,
        "samplers.ask_ms_p99": percentile(asks, 99) * ms,
        "samplers.ask_ms_last_decile": percentile(last_decile, 50) * ms,
        "samplers.fit_parzen_calls": len(fit_parzen),
        "samplers.fit_parzen_busy_s": math.fsum(fit_parzen),
        "samplers.grid_cells_per_ask": grid_cells / len(grid_asks) if grid_asks else 0,
        "samplers.grid_ask_ms_p50": percentile(grid_asks, 50) * ms,
        "study.rescan_calls": len(rescans),
        "study.rescan_busy_s": math.fsum(rescans),
        "pruning.should_prune_calls": len(prune),
        "pruning.busy_s": math.fsum(prune),
        "pruning.pruned_ratio": facts["states"]["pruned"] / trials,
        "pruning.wasted_epoch_ratio": (
            facts["pruned_epochs"] / facts["epochs"] if facts["epochs"] else 0.0
        ),
        "journal.records_per_trial": facts["records"] / trials,
        "journal.bytes_per_trial": facts["bytes"] / trials,
        "journal.fsync_calls": len(fsyncs),
        "journal.append_us_p50": percentile(appends, 50) * us,
        "journal.append_us_p99": percentile(appends, 99) * us,
        "journal.fsync_us_p50": percentile(fsyncs, 50) * us,
        "journal.fsync_share": math.fsum(fsyncs) / wall_s,
        "orchestrator.coordinator_self_s_per_trial": layer_self.get("orchestrator", 0.0) / trials,
    }


def report_metrics(spans) -> dict[str, float]:
    """Metrics of one traced ``report`` + ``best`` pass."""
    own = self_times(spans)
    replay = _durations(spans, "journal.read_records") + _durations(
        spans, "journal.study_from_records"
    )
    write = sum(t for s, t in zip(spans, own) if s[NAME] == "reporting.write_reports")
    return {"journal.replay_s": math.fsum(replay), "reporting.write_s": write}


def span_summary(spans) -> dict[str, dict]:
    """Calls, total time and self time per span name."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
    return out


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median that is one of the measured values, so counts stay whole."""
    return {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
