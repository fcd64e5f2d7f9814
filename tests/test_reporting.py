import csv
import io
import re
import xml.etree.ElementTree as ET

import pytest

from studyforge import reporting
from studyforge.journal import (
    KIND_INTERMEDIATE,
    KIND_TRIAL_END,
    KIND_TRIAL_START,
    Journal,
)
from studyforge.reporting import (
    best_so_far,
    choice_summary,
    render_csv,
    render_history_svg,
    render_markdown,
    trials_table,
    write_atomic,
    write_reports,
)
from studyforge.study import SearchSpace, boolean, int_categorical, uniform

from conftest import complete_trial, make_study, running_trial


def batch_space():
    return SearchSpace(
        {
            "lr": uniform(0.0, 1.0),
            "batch_size": int_categorical([8, 16, 32, 64, 128]),
            "hflip": boolean(),
        }
    )


def seeded_study(direction="maximize"):
    study = make_study(batch_space(), direction=direction)
    values = [(8, 0.70), (16, 0.80), (32, 0.85), (16, 0.75), (64, 0.90)]
    for i, (bs, value) in enumerate(values):
        complete_trial(
            study, {"lr": 0.1 * (i + 1), "batch_size": bs, "hflip": i % 2 == 1}, value
        )
    return study


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestTrialsTable:
    def test_one_row_per_trial_in_space_order(self):
        study = seeded_study()
        header, rows = trials_table(study)
        assert header == ["trial_id", "lr", "batch_size", "hflip", "state", "final_value"]
        assert len(rows) == 5
        assert rows[0] == ["0", "0.1", "8", "False", "complete", "0.7"]

    def test_final_value_blank_unless_complete(self):
        study = make_study(batch_space())
        complete_trial(study, {"lr": 0.5, "batch_size": 8, "hflip": False}, 0.9)
        running_trial(study, {"lr": 0.6, "batch_size": 16, "hflip": True})
        _, rows = trials_table(study)
        assert rows[0][-2:] == ["complete", "0.9"]
        assert rows[1][-2:] == ["running", ""]

    def test_empty_study_has_header_only(self):
        header, rows = trials_table(make_study(batch_space()))
        assert rows == []
        assert render_csv(header, rows).splitlines() == [
            "trial_id,lr,batch_size,hflip,state,final_value"
        ]


class TestRenderers:
    def test_csv_uses_unix_line_endings(self):
        text = render_csv(["a", "b"], [["1", "2"]])
        assert text == "a,b\n1,2\n"

    def test_markdown_pipe_table(self):
        text = render_markdown(["a", "b"], [["1", "2"]])
        assert text == "| a | b |\n| --- | --- |\n| 1 | 2 |\n"


class TestChoiceSummary:
    def test_every_declared_choice_listed(self):
        study = seeded_study()
        header, rows = choice_summary(study, "batch_size")
        assert header == ["choice", "n_complete", "best_value"]
        assert [r[0] for r in rows] == ["8", "16", "32", "64", "128"]

    def test_best_per_choice_maximize(self):
        study = seeded_study()
        _, rows = choice_summary(study, "batch_size")
        by_choice = {r[0]: r for r in rows}
        assert by_choice["16"] == ["16", "2", "0.8"]
        assert by_choice["64"] == ["64", "1", "0.9"]
        assert by_choice["128"] == ["128", "0", ""]

    def test_best_per_choice_minimize(self):
        study = make_study(batch_space(), direction="minimize")
        complete_trial(study, {"lr": 0.1, "batch_size": 8, "hflip": False}, 0.5)
        complete_trial(study, {"lr": 0.2, "batch_size": 8, "hflip": False}, 0.3)
        _, rows = choice_summary(study, "batch_size")
        assert rows[0] == ["8", "2", "0.3"]

    def test_boolean_summary(self):
        study = seeded_study()
        _, rows = choice_summary(study, "hflip")
        assert [r[0] for r in rows] == ["False", "True"]
        assert [r[1] for r in rows] == ["3", "2"]


class TestBestSoFar:
    def test_running_best_maximize(self):
        study = seeded_study()
        ids, values = best_so_far(study)
        assert ids == [0, 1, 2, 3, 4]
        assert values == [0.70, 0.80, 0.85, 0.85, 0.90]
        assert values == sorted(values)

    def test_running_best_minimize(self):
        study = make_study(SearchSpace({"x": uniform(0, 1)}), direction="minimize")
        for value in (0.5, 0.7, 0.2, 0.4):
            complete_trial(study, {"x": value}, value)
        _, values = best_so_far(study)
        assert values == [0.5, 0.5, 0.2, 0.2]

    def test_non_complete_trials_excluded(self):
        study = make_study(SearchSpace({"x": uniform(0, 1)}))
        complete_trial(study, {"x": 0.1}, 0.6)
        running_trial(study, {"x": 0.2})
        ids, values = best_so_far(study)
        assert ids == [0] and values == [0.6]


class TestHistorySvg:
    def test_well_formed_xml_with_polyline(self):
        svg = render_history_svg(seeded_study())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_polyline_y_never_increases_for_maximize(self):
        # svg y grows downward, so a non-decreasing best-so-far series
        # must render as non-increasing y coordinates
        svg = render_history_svg(seeded_study())
        points = re.search(r'points="([^"]+)"', svg).group(1)
        ys = [float(p.split(",")[1]) for p in points.split()]
        assert all(a >= b for a, b in zip(ys, ys[1:]))

    def test_flat_curve_renders_without_error(self):
        study = make_study(SearchSpace({"x": uniform(0, 1)}))
        for _ in range(3):
            complete_trial(study, {"x": 0.5}, 0.7)
        svg = render_history_svg(study)
        ET.fromstring(svg)
        points = re.search(r'points="([^"]+)"', svg).group(1)
        ys = {p.split(",")[1] for p in points.split()}
        assert len(ys) == 1

    def test_empty_study_notes_no_completed_trials(self):
        svg = render_history_svg(make_study(SearchSpace({"x": uniform(0, 1)})))
        assert "no completed trials" in svg
        assert "polyline" not in svg

    def test_single_point_renders(self):
        study = make_study(SearchSpace({"x": uniform(0, 1)}))
        complete_trial(study, {"x": 0.5}, 0.7)
        ET.fromstring(render_history_svg(study))


def journal_with_trials(tmp_path, *, metrics=None, include_running=False):
    space = batch_space()
    meta = {"space": space.to_dict(), "direction": "maximize", "seed": 0}
    path = tmp_path / "journal.jsonl"
    with Journal(path, meta=meta) as journal:
        values = [(8, 0.70), (16, 0.80), (32, 0.85), (16, 0.75), (64, 0.90)]
        for i, (bs, value) in enumerate(values):
            params = {"lr": 0.1 * (i + 1), "batch_size": bs, "hflip": i % 2 == 1}
            journal.append(KIND_TRIAL_START, trial_id=i, params=params)
            journal.append(KIND_INTERMEDIATE, trial_id=i, step=1, value=value)
            end = {"trial_id": i, "state": "complete", "final_value": value}
            if metrics is not None and i == 4:
                end["metrics"] = metrics
            journal.append(KIND_TRIAL_END, **end)
        if include_running:
            journal.append(
                KIND_TRIAL_START,
                trial_id=5,
                params={"lr": 0.9, "batch_size": 8, "hflip": False},
            )
    return path


class TestWriteReports:
    def test_csv_outputs(self, tmp_path):
        journal = journal_with_trials(tmp_path)
        written = write_reports(journal, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {
            "trials.csv",
            "summary_batch_size.csv",
            "summary_hflip.csv",
            "history.svg",
        }
        rows = parse_csv((tmp_path / "out" / "trials.csv").read_text())
        assert len(rows) == 1 + 5

    def test_md_outputs(self, tmp_path):
        journal = journal_with_trials(tmp_path)
        written = write_reports(journal, tmp_path / "out", fmt="md")
        names = {p.name for p in written}
        assert "trials.md" in names and "summary_batch_size.md" in names
        text = (tmp_path / "out" / "trials.md").read_text()
        assert text.startswith("| trial_id | lr | batch_size | hflip | state | final_value |")

    def test_unknown_format_rejected(self, tmp_path):
        journal = journal_with_trials(tmp_path)
        with pytest.raises(ValueError):
            write_reports(journal, tmp_path / "out", fmt="html")

    def test_regeneration_is_byte_identical(self, tmp_path):
        journal = journal_with_trials(tmp_path)
        first = write_reports(journal, tmp_path / "a")
        second = write_reports(journal, tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_reports_reflect_only_journal_trials(self, tmp_path):
        journal = journal_with_trials(tmp_path, include_running=True)
        write_reports(journal, tmp_path / "out")
        rows = parse_csv((tmp_path / "out" / "trials.csv").read_text())
        assert len(rows) == 1 + 6
        # the mid-flight trial resumes as failed and contributes no value
        assert rows[6][4] == "failed" and rows[6][5] == ""

    def test_metrics_produce_confusion_and_f1_files(self, tmp_path):
        metrics = {
            "confusion": [[10, 2], [1, 12]],
            "f1": [0.87, 0.889],
            "macro_f1": 0.8795,
        }
        journal = journal_with_trials(tmp_path, metrics=metrics)
        written = write_reports(journal, tmp_path / "out")
        names = {p.name for p in written}
        assert "confusion.csv" in names and "f1.csv" in names
        conf_rows = parse_csv((tmp_path / "out" / "confusion.csv").read_text())
        assert conf_rows[0] == ["class", "pred_0", "pred_1"]
        assert conf_rows[1] == ["true_0", "10", "2"]
        f1_rows = parse_csv((tmp_path / "out" / "f1.csv").read_text())
        assert f1_rows[0] == ["class", "f1"]
        assert f1_rows[-1] == ["macro", "0.8795"]

    def test_metrics_from_non_best_trial_ignored(self, tmp_path):
        # metrics hang off trial 4, which is also the best trial here; a
        # journal whose best trial lacks metrics emits no confusion files
        journal = journal_with_trials(tmp_path)
        written = write_reports(journal, tmp_path / "out")
        assert all(p.name != "confusion.csv" for p in written)


class _HalfWrite:
    """Stands in for open(): the file's write puts half the text on disk,
    flushes it, then raises, as a crash or a full disk would."""

    def __init__(self, path, mode="r", fail_on=None):
        self._file = open(path, mode)
        self._fail = fail_on is None or fail_on in str(path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, text):
        if not self._fail:
            return self._file.write(text)
        self._file.write(text[: len(text) // 2])
        self._file.flush()
        raise OSError("injected: disk full")


class TestAtomicOutputs:
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "trials.csv"
        write_atomic(path, "old\n")
        monkeypatch.setattr(reporting, "open", _HalfWrite, raising=False)
        with pytest.raises(OSError, match="injected"):
            write_atomic(path, "new row\n" * 100)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]

    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "trials.csv"
        write_atomic(path, "old\n")

        def refuse(src, dst):
            raise OSError("injected: rename refused")

        monkeypatch.setattr(reporting.os, "replace", refuse)
        with pytest.raises(OSError, match="injected"):
            write_atomic(path, "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]

    def test_write_is_byte_identical_to_write_text(self, tmp_path):
        text = "a,b\r\nc\u00e9\n" * 3
        write_atomic(tmp_path / "atomic", text)
        (tmp_path / "plain").write_text(text)
        assert (tmp_path / "atomic").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_report_cut_mid_file_leaves_whole_files(self, tmp_path, monkeypatch):
        journal = journal_with_trials(tmp_path)
        new = {p.name: p.read_bytes() for p in write_reports(journal, tmp_path / "new")}
        out = tmp_path / "out"
        out.mkdir()
        for name in new:
            write_atomic(out / name, f"old {name}\n")
        monkeypatch.setattr(
            reporting,
            "open",
            lambda path, mode="r": _HalfWrite(path, mode, fail_on="history.svg"),
            raising=False,
        )
        with pytest.raises(OSError, match="injected"):
            write_reports(journal, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(new)
        # files before the cut are wholly new, the cut one wholly old
        assert (out / "trials.csv").read_bytes() == new["trials.csv"]
        assert (out / "summary_hflip.csv").read_bytes() == new["summary_hflip.csv"]
        assert (out / "history.svg").read_text() == "old history.svg\n"
