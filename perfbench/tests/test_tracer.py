import types

import pytest

import tracer as tracing
from tracer import END, NAME, PARENT, START, Tracer, install, self_times


def test_wrapper_returns_exactly_what_the_function_returns():
    sentinel = object()
    t = Tracer()
    wrapped = t.wrap("x.f", lambda a, b=None: (a, b, sentinel))
    result = wrapped(1, b=[2])
    assert result[0] == 1 and result[1] == [2] and result[2] is sentinel
    assert [s[NAME] for s in t.spans] == ["x.f"]


def test_wrapper_reraises_and_still_closes_the_span():
    t = Tracer()

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        t.wrap("x.boom", boom)()
    assert t.spans[0][END] >= t.spans[0][START]
    assert t._stack == []


def test_parents_and_self_times():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: next(ticks))
    inner = t.wrap("b.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    t.wrap("a.outer", outer_fn)()
    t.wrap("a.after", lambda: None)()
    # outer 0..5, inner 1..2 and 3..4, after 6..7
    assert [s[PARENT] for s in t.spans] == [-1, 0, 0, -1]
    assert self_times(t.spans) == [3, 1, 1, 1]


def test_uninstall_restores_every_attribute():
    from studyforge import cli, journal, orchestrator, reporting, samplers, surrogate
    from studyforge.journal import Journal
    from studyforge.samplers import GridSampler, RandomSampler, TpeSampler
    from studyforge.study import Study

    owners = [cli, journal, orchestrator, reporting, samplers, surrogate,
              Journal, GridSampler, RandomSampler, TpeSampler, Study]

    def snapshot():
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    t = install(Tracer())
    patched = {key for key, value in snapshot().items() if before.get(key) is not value}
    assert len(patched) >= 25
    t.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert journal.os is __import__("os")


def test_module_view_overrides_one_name_and_forwards_the_rest():
    fake = types.SimpleNamespace(fsync=lambda fd: "real", sep="/")
    view = tracing.ModuleView(fake, fsync=lambda fd: "traced")
    assert view.fsync(3) == "traced" and view.sep == "/"


def test_traced_run_writes_the_same_journal_bytes(small_bench):
    small_bench.study_run()
    untraced = small_bench.first_sha
    with install(Tracer()) as t:
        rep = small_bench.study_run()
    assert rep["sha256"] == untraced
    assert small_bench.problems == []
    names = {s[NAME] for s in t.spans}
    assert {"cli.main", "orchestrator.run_study", "surrogate.train_and_evaluate",
            "pruning.should_prune", "journal.fsync", "samplers.ask.tpe"} <= names
