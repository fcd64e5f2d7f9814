"""Command-line entry point: run, report, best, split.

Every command exits 0 on success and nonzero with a one-line diagnostic
on stderr otherwise. Outputs are deterministic functions of their inputs
and seeds, so rerunning a command rewrites identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import apply_overrides, config_from_mapping, load_yaml
from .errors import StudyForgeError
from .journal import read_records, study_from_records
from .manifest import TASK_CLASSES, load_manifest, select_cohort, write_split
from .orchestrator import run_study
from .reporting import write_atomic, write_reports

SEED_ENV = "STUDYFORGE_SEED"


def _best_payload(best) -> dict:
    return {"params": best.params, "value": best.final_value}


def cmd_run(config_path: str, overrides: list[str], resume: bool = False) -> int:
    raw = load_yaml(Path(config_path).read_text())
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:  # the last override, so it wins over --set seed=
        overrides = [*overrides, f"seed={env_seed}"]
    config = config_from_mapping(apply_overrides(raw, overrides))

    result = run_study(config, resume=resume)
    out_dir = Path(config.output_dir)

    if result.best is not None:
        payload = _best_payload(result.best)
    else:
        payload = {"params": None, "value": None}
    best_path = out_dir / "best.json"
    write_atomic(best_path, json.dumps(payload, sort_keys=True) + "\n")

    written = write_reports(result.journal_path, out_dir, study=result.study)
    for path in [result.journal_path, best_path, *written]:
        print(path)
    return 0


def cmd_report(journal_path: str, fmt: str, out_dir: str | None) -> int:
    target = Path(out_dir) if out_dir else Path(journal_path).parent
    study = study_from_records(read_records(journal_path))
    if study.best is None:
        print("warning: journal has no completed trials", file=sys.stderr)
    written = write_reports(journal_path, target, fmt=fmt, study=study)
    for path in written:
        print(path)
    return 0


def cmd_best(journal_path: str) -> int:
    study = study_from_records(read_records(journal_path))
    if study.best is None:
        print("error: journal has no completed trials", file=sys.stderr)
        return 1
    print(json.dumps(_best_payload(study.best), sort_keys=True))
    return 0


def cmd_split(manifest_path: str, seed: int, mode: str, out_dir: str) -> int:
    split = select_cohort(load_manifest(manifest_path), mode, seed)
    paths = write_split(split, out_dir, mode)
    for path in paths.values():
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="studyforge",
        description="Hyperparameter studies: TPE search, pruning, journaled runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a study from a config file")
    p_run.add_argument("config", help="path to the YAML config")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. policy.n_trials=5 (repeatable)",
    )
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="continue the study in output_dir's journal.jsonl, which must come from "
        "the same config, instead of starting over",
    )

    p_report = sub.add_parser("report", help="regenerate report files from a journal")
    p_report.add_argument("journal", help="path to journal.jsonl")
    p_report.add_argument("--format", choices=("csv", "md"), default="csv")
    p_report.add_argument("--out", default=None, help="output directory (default: journal's)")

    p_best = sub.add_parser("best", help="print the best trial as JSON")
    p_best.add_argument("journal", help="path to journal.jsonl")

    p_split = sub.add_parser("split", help="split a dataset manifest into train/val/test")
    p_split.add_argument("manifest", help="path to the manifest CSV")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--mode", choices=tuple(TASK_CLASSES), default="multiclass")
    p_split.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.overrides, args.resume)
        if args.command == "report":
            return cmd_report(args.journal, args.format, args.out)
        if args.command == "best":
            return cmd_best(args.journal)
        if args.command == "split":
            return cmd_split(args.manifest, args.seed, args.mode, args.out)
    except (StudyForgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
