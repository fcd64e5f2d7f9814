"""Outside-in tracer: pass-through wrappers around studyforge's public calls.

Each traced function is replaced *where its caller looks it up*: the
orchestrator binds ``train_and_evaluate`` into its own module namespace,
the surrogate binds ``apply_affine`` into its, and methods are looked up
on their class. A wrapper records one span ``[name, start, end, parent,
size]`` and returns exactly what the wrapped function returned. Spans stay
in memory until the run ends; nothing is written while tracing.

The tracer keeps one span stack, so it is only valid for runs with one
trial thread, which is all the benchmark runs.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, SIZE = range(5)


class ModuleView:
    """Stands in for a module inside another module's namespace, with some
    attributes overridden (used to see ``os.fsync`` as the journal sees it)."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        """Pass-through wrapper; ``size(result)`` is stored on the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def patch_fsync(self, module, name: str) -> None:
        """Trace ``module.os.fsync`` without touching the real ``os``."""
        original = module.os
        self._patches.append((module, "os", original))
        module.os = ModuleView(original, fsync=self.wrap(name, original.fsync))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def install(tracer: Tracer) -> Tracer:
    """Patch every layer boundary of studyforge into ``tracer``."""
    from studyforge import cli, journal, orchestrator, reporting, samplers, surrogate
    from studyforge.journal import Journal
    from studyforge.samplers import GridSampler, RandomSampler, TpeSampler
    from studyforge.study import Study

    table = [
        (cli, "main", "cli.main"),
        (cli, "run_study", "orchestrator.run_study"),
        (cli, "write_reports", "reporting.write_reports"),
        (cli, "read_records", "journal.read_records"),
        (cli, "study_from_records", "journal.study_from_records"),
        # set-up inside ``run`` (dataset build), kept out of the coordinator's own time
        (orchestrator, "build_objective", "setup.build_objective"),
        (orchestrator, "train_and_evaluate", "surrogate.train_and_evaluate"),
        (orchestrator, "benchmark_objective", "surrogate.benchmark_objective"),
        (orchestrator, "should_prune", "pruning.should_prune"),
        (surrogate, "sample_affine_params", "augment.sample_affine_params"),
        (surrogate, "affine_matrix", "augment.affine_matrix"),
        (surrogate, "apply_affine", "augment.apply_affine"),
        (surrogate, "mlp_forward", "surrogate.mlp_forward"),
        (surrogate, "batch_cross_entropy", "surrogate.batch_cross_entropy"),
        (surrogate, "mlp_backward", "surrogate.mlp_backward"),
        (surrogate, "adam_step", "surrogate.adam_step"),
        (Study, "ask", "study.ask"),
        (Study, "tell", "study.tell"),
        (Study, "report_intermediate", "study.report_intermediate"),
        (Study, "completed_trials", "study.completed_trials"),
        (Study, "best_trial", "study.best_trial"),
        (TpeSampler, "suggest", "samplers.ask.tpe"),
        (RandomSampler, "suggest", "samplers.ask.random"),
        (GridSampler, "suggest", "samplers.ask.grid"),
        (samplers, "trial_observations", "samplers.trial_observations"),
        (samplers, "fit_parzen", "samplers.fit_parzen"),
        (Journal, "__init__", "journal.open"),
        (Journal, "append", "journal.append"),
        (Journal, "close", "journal.close"),
        (reporting, "read_records", "journal.read_records"),
        (reporting, "study_from_records", "journal.study_from_records"),
    ]
    for owner, attr, name in table:
        tracer.patch(owner, attr, name)
    tracer.patch(samplers, "grid_enumerate", "samplers.grid_enumerate", size=len)
    tracer.patch_fsync(journal, "journal.fsync")
    return tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out

