"""Run artifacts derived from a journal: trial tables, summaries, plots.

Everything here is a pure function of a study. `report` builds its files
from the journal's replay, and `run` builds them from the study it
journaled, which replay reproduces, so both write the same bytes for the
same journal, and regenerating reports never changes them. The history
plot is a hand-built SVG polyline to keep runs diffable without a
plotting dependency.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from .journal import read_records, study_from_records
from .study import MAXIMIZE, Study, TrialState, is_improvement

SVG_WIDTH = 640
SVG_HEIGHT = 400
SVG_MARGIN = 50


def _fmt(value) -> str:
    if value is None:
        return ""
    return str(value)


def trials_table(study: Study) -> tuple[list[str], list[list[str]]]:
    """Header and rows covering every trial, one row each."""
    names = study.space.names
    header = ["trial_id", *names, "state", "final_value"]
    rows = []
    for t in study.trials:
        row = [str(t.trial_id)]
        row.extend(_fmt(t.params.get(name)) for name in names)
        row.append(t.state.value)
        row.append(_fmt(t.final_value if t.state is TrialState.COMPLETE else None))
        rows.append(row)
    return header, rows


def render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_markdown(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def choice_summary(study: Study, name: str) -> tuple[list[str], list[list[str]]]:
    """Best completed value per choice of one discrete parameter.

    Every declared choice gets a row even when no completed trial used it.
    """
    dist = study.space.entries[name]
    complete = study.completed_trials()
    header = ["choice", "n_complete", "best_value"]
    rows = []
    for choice in dist.choices:
        values = [t.final_value for t in complete if t.params[name] == choice]
        best = None
        if values:
            best = max(values) if study.direction == MAXIMIZE else min(values)
        rows.append([_fmt(choice), str(len(values)), _fmt(best)])
    return header, rows


def best_so_far(study: Study) -> tuple[list[int], list[float]]:
    """Completed trials in study order with the running best value."""
    ids, values = [], []
    best = None
    for t in study.completed_trials():
        if is_improvement(study.direction, t.final_value, best):
            best = t.final_value
        ids.append(t.trial_id)
        values.append(best)
    return ids, values


def render_history_svg(study: Study) -> str:
    ids, values = best_so_far(study)
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="24" text-anchor="middle" font-size="14" '
        f'font-family="monospace">best value so far ({study.direction})</text>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    if not values:
        lines.append(
            f'<text x="{w // 2}" y="{h // 2}" text-anchor="middle" font-size="12" '
            f'font-family="monospace">no completed trials</text>'
        )
    else:
        lo, hi = min(values), max(values)
        span = hi - lo
        if span <= 0:
            # flat curve: center it vertically instead of dividing by zero
            lo, span = lo - 0.5, 1.0
        n = len(values)
        xs = [
            m + (w - 2 * m) * (i / (n - 1) if n > 1 else 0.5) for i in range(n)
        ]
        ys = [h - m - (h - 2 * m) * ((v - lo) / span) for v in values]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        lines.append(
            f'<polyline fill="none" stroke="steelblue" stroke-width="2" '
            f'points="{points}"/>'
        )
        lines.append(
            f'<text x="{m}" y="{h - m + 20}" font-size="11" font-family="monospace">'
            f"trial {ids[0]}</text>"
        )
        lines.append(
            f'<text x="{w - m}" y="{h - m + 20}" text-anchor="end" font-size="11" '
            f'font-family="monospace">trial {ids[-1]}</text>'
        )
        lines.append(
            f'<text x="{m - 6}" y="{h - m}" text-anchor="end" font-size="11" '
            f'font-family="monospace">{min(values)!r}</text>'
        )
        lines.append(
            f'<text x="{m - 6}" y="{m + 4}" text-anchor="end" font-size="11" '
            f'font-family="monospace">{max(values)!r}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_confusion_csv(confusion: list[list[int]]) -> str:
    n = len(confusion)
    header = ["class", *[f"pred_{j}" for j in range(n)]]
    rows = [[f"true_{i}", *[str(c) for c in confusion[i]]] for i in range(n)]
    return render_csv(header, rows)


def render_f1_csv(f1: list[float], macro_f1: float) -> str:
    rows = [[str(i), _fmt(v)] for i, v in enumerate(f1)]
    rows.append(["macro", _fmt(macro_f1)])
    return render_csv(["class", "f1"], rows)


def write_atomic(path: Path, text: str) -> None:
    """Write text beside path, then rename it over path: a crash leaves
    either the old file or the whole new one, never a half file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_reports(journal_path, out_dir, fmt: str = "csv", *, study=None) -> list[Path]:
    """Regenerate every derived artifact for one journal. Returns paths.

    ``study`` is the journal's study when the caller holds it already: the
    one it replayed, or the one it journaled; by default the journal is
    replayed here.
    """
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown report format {fmt!r}")
    if study is None:
        study = study_from_records(read_records(journal_path))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    render = render_csv if fmt == "csv" else render_markdown
    written = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        write_atomic(path, text)
        written.append(path)

    emit(f"trials.{fmt}", render(*trials_table(study)))
    for name, dist in study.space.entries.items():
        if dist.is_discrete:
            emit(f"summary_{name}.{fmt}", render(*choice_summary(study, name)))
    emit("history.svg", render_history_svg(study))
    metrics = study.best.metrics if study.best is not None else None
    if metrics is not None:
        emit("confusion.csv", render_confusion_csv(metrics["confusion"]))
        emit("f1.csv", render_f1_csv(metrics["f1"], metrics["macro_f1"]))
    return written
