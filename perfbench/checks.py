"""Output checks, written against the raw files rather than studyforge's
own readers, so a bug in a reader cannot hide a bug in a writer.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

META, START, INTERMEDIATE, END = "study-meta", "trial-start", "intermediate", "trial-end"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_journal(raw: bytes) -> tuple[list[dict], list[str]]:
    """Every line must be a complete JSON object ending in a newline."""
    if not raw.endswith(b"\n"):
        return [], ["journal does not end with a newline"]
    records, problems = [], []
    for i, line in enumerate(raw[:-1].split(b"\n")):
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {i}: not JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {i}: not an object")
            continue
        records.append(record)
    return records, problems


def _in_space(value, spec: dict) -> bool:
    kind = spec["kind"]
    if kind == "boolean":
        return type(value) is bool
    if "choices" in spec:
        return any(value == c and type(value) is type(c) for c in spec["choices"])
    return (
        isinstance(value, float)
        and math.isfinite(value)
        and spec["low"] <= value <= spec["high"]
    )


def check_journal(path) -> list[str]:
    """Gapless seq from 0, study-meta first, one trial-end per trial-start,
    consecutive trial ids, every param inside the declared space."""
    records, problems = parse_journal(Path(path).read_bytes())
    if problems:
        return problems
    if not records or records[0].get("kind") != META:
        return ["first record is not study-meta"]
    for i, record in enumerate(records):
        if record.get("seq") != i:
            return [f"record {i} has seq {record.get('seq')!r}: journal has a gap"]
    space = records[0]["space"]
    started, ended = [], {}
    for record in records[1:]:
        kind, tid = record.get("kind"), record.get("trial_id")
        if kind == START:
            if tid != len(started):
                problems.append(f"trial-start id {tid} out of order")
            started.append(tid)
            params = record.get("params", {})
            if set(params) != set(space):
                problems.append(f"trial {tid}: params {sorted(params)} do not match the space")
            for name, value in params.items():
                if name in space and not _in_space(value, space[name]):
                    problems.append(f"trial {tid}: {name}={value!r} outside the space")
        elif kind in (INTERMEDIATE, END):
            if tid not in started or tid in ended:
                problems.append(f"{kind} for trial {tid} that is not running")
            if kind == END:
                ended[tid] = record.get("state")
    missing = [t for t in started if t not in ended]
    if missing:
        problems.append(f"trials without a trial-end: {missing}")
    return problems


def trial_facts(path) -> dict:
    """Deterministic facts from the raw journal: states, epochs, sizes."""
    raw = Path(path).read_bytes()
    records, _ = parse_journal(raw)
    states = {"complete": 0, "pruned": 0, "failed": 0}
    epochs: dict[int, int] = {}
    ended: dict[int, str] = {}
    for record in records:
        if record.get("kind") == INTERMEDIATE:
            epochs[record["trial_id"]] = epochs.get(record["trial_id"], 0) + 1
        elif record.get("kind") == END:
            ended[record["trial_id"]] = record["state"]
            states[record["state"]] += 1
    all_epochs = sum(epochs.values())
    pruned_epochs = sum(n for t, n in epochs.items() if ended.get(t) == "pruned")
    return {
        "trials": len(ended),
        "states": states,
        "records": len(records),
        "bytes": len(raw),
        "epochs": all_epochs,
        "pruned_epochs": pruned_epochs,
    }


def recompute_best(path) -> dict | None:
    """Best trial straight from the records: extremal complete value per the
    study direction, ties to the lowest trial id."""
    records, _ = parse_journal(Path(path).read_bytes())
    direction = records[0]["direction"]
    params = {r["trial_id"]: r["params"] for r in records if r.get("kind") == START}
    done = [
        (r["final_value"], r["trial_id"])
        for r in records
        if r.get("kind") == END and r.get("state") == "complete"
    ]
    if not done:
        return None
    if direction == "maximize":
        value, tid = max(done, key=lambda vt: (vt[0], -vt[1]))
    else:
        value, tid = min(done)
    return {"params": params[tid], "value": value}


def check_best(journal_path, best_json_path, best_stdout: str) -> list[str]:
    """best.json, the stdout of ``best`` and the recomputed best agree."""
    expected = recompute_best(journal_path)
    problems = []
    try:
        from_file = json.loads(Path(best_json_path).read_text())
    except ValueError as exc:
        return [f"best.json is not JSON ({exc})"]
    if from_file != expected:
        problems.append(f"best.json {from_file} != recomputed {expected}")
    try:
        from_stdout = json.loads(best_stdout)
    except ValueError as exc:
        return problems + [f"stdout of best is not JSON ({exc})"]
    if from_stdout != expected:
        problems.append(f"stdout of best {from_stdout} != recomputed {expected}")
    return problems


def check_same_files(run_dir, report_dir) -> list[str]:
    """Every file ``report`` wrote is byte-identical to the one ``run`` wrote."""
    run_dir, report_dir = Path(run_dir), Path(report_dir)
    rebuilt = sorted(p.name for p in report_dir.iterdir())
    if not rebuilt:
        return ["report wrote no files"]
    written = {p.name for p in run_dir.iterdir()} - {"journal.jsonl", "best.json"}
    problems = [f"run wrote {n}, which report did not" for n in sorted(written - set(rebuilt))]
    for name in rebuilt:
        original = run_dir / name
        if not original.exists():
            problems.append(f"report wrote {name}, which run did not")
        elif original.read_bytes() != (report_dir / name).read_bytes():
            problems.append(f"report rebuilt {name} with different bytes")
    return problems
