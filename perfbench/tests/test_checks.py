import json
from pathlib import Path

import pytest

import checks


@pytest.fixture
def finished(small_bench):
    small_bench.study_run()
    assert small_bench.problems == []
    return small_bench


def lines(path):
    return Path(path).read_bytes().splitlines(keepends=True)


def test_intact_outputs_pass(finished):
    finished.report_pass()
    assert finished.problems == [] and finished.failed == 0
    facts = checks.trial_facts("out/journal.jsonl")
    assert sum(facts["states"].values()) == facts["trials"] == 6


def test_journal_check_fails_with_any_record_cut_out(finished):
    original = lines("out/journal.jsonl")
    assert checks.check_journal("out/journal.jsonl") == []
    for i in range(len(original)):
        Path("cut.jsonl").write_bytes(b"".join(original[:i] + original[i + 1 :]))
        assert checks.check_journal("cut.jsonl"), f"record {i} cut out went unnoticed"


def test_journal_check_fails_on_a_param_outside_the_space(finished):
    records = [json.loads(x) for x in lines("out/journal.jsonl")]
    start = next(r for r in records if r["kind"] == "trial-start")
    start["params"]["batch_size"] = 7
    Path("bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert any("outside the space" in p for p in checks.check_journal("bad.jsonl"))


@pytest.mark.parametrize("where", ["middle", "last"])
def test_report_and_best_fail_with_a_record_cut_out(finished, where):
    original = lines("out/journal.jsonl")
    i = len(original) // 2 if where == "middle" else len(original) - 1
    Path("out/journal.jsonl").write_bytes(b"".join(original[:i] + original[i + 1 :]))
    finished.report_pass()
    assert finished.failed >= 1, finished.problems


def test_best_check_fails_on_a_tampered_best_json(finished):
    best = json.loads(Path("out/best.json").read_text())
    stdout = json.dumps(best, sort_keys=True)
    assert checks.check_best("out/journal.jsonl", "out/best.json", stdout) == []
    tampered = dict(best, value=best["value"] - 0.01)
    Path("out/best.json").write_text(json.dumps(tampered))
    assert checks.check_best("out/journal.jsonl", "out/best.json", stdout)
    finished.report_pass()
    assert any(p.startswith("best:") for p in finished.problems)


def test_report_check_fails_on_a_changed_run_file(finished):
    Path("out/trials.csv").write_text("tampered\n")
    finished.report_pass()
    assert any(p.startswith("report:") for p in finished.problems)


def test_repetitions_must_write_identical_journals(finished):
    finished.study_run()
    assert finished.problems == []
    finished.first_sha = "0" * 64
    finished.study_run()
    assert any("differ from the first repetition" in p for p in finished.problems)
