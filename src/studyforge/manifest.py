"""Cohort preparation: manifest ingestion, exclusion, rebalancing, splitting.

The manifest is a CSV stand-in for a DICOM study directory: one row per
study with its label and the number of images the study folder held.
Multi-image studies (lateral scans) are dropped, binary experiments are
rebalanced to a 1:1 negative/positive pool, and the 70:20:10 split is
stratified per label with largest-remainder rounding.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ManifestParseError, ValidationError

LABELS = (
    "Negative for Pneumonia",
    "Typical Appearance",
    "Indeterminate Appearance",
    "Atypical Appearance",
)
NEGATIVE_LABEL = LABELS[0]
BINARY_NEGATIVE = "negative"
BINARY_POSITIVE = "positive"

# The class names of each task, in class-index order.
TASK_CLASSES = {
    "binary": (BINARY_NEGATIVE, BINARY_POSITIVE),
    "multiclass": LABELS,
}

MANIFEST_HEADER = ["study_id", "image_path", "label", "images_in_study"]

DEFAULT_RATIOS = (0.7, 0.2, 0.1)


@dataclass(frozen=True)
class ManifestEntry:
    study_id: str
    image_path: str
    label: str
    images_in_study: int

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValidationError(f"unknown label {self.label!r}")
        if self.images_in_study < 1:
            raise ValidationError("images_in_study must be >= 1")


def binary_label(entry: ManifestEntry) -> str:
    return BINARY_NEGATIVE if entry.label == NEGATIVE_LABEL else BINARY_POSITIVE


def task_label(entry: ManifestEntry, task: str) -> str:
    """The entry's class name under ``task`` (one of ``TASK_CLASSES[task]``)."""
    return binary_label(entry) if task == "binary" else entry.label


@dataclass
class SplitResult:
    train: list[ManifestEntry]
    val: list[ManifestEntry]
    test: list[ManifestEntry]
    seed: int

    def all_entries(self) -> list[ManifestEntry]:
        return self.train + self.val + self.test


def parse_manifest(text: str) -> list[ManifestEntry]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise ManifestParseError(1, f"expected header {','.join(MANIFEST_HEADER)}")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ManifestParseError(line_no, f"expected 4 fields, got {len(row)}")
        study_id, image_path, label, count_text = row
        try:
            count = int(count_text)
        except ValueError:
            raise ManifestParseError(
                line_no, f"images_in_study must be an integer, got {count_text!r}"
            ) from None
        try:
            entries.append(ManifestEntry(study_id, image_path, label, count))
        except ValidationError as exc:
            raise ManifestParseError(line_no, str(exc)) from None
    return entries


def load_manifest(path) -> list[ManifestEntry]:
    return parse_manifest(Path(path).read_text(encoding="utf-8"))


def exclude_multi_image_studies(entries: list[ManifestEntry]) -> list[ManifestEntry]:
    """Keep only single-image studies, preserving order."""
    return [e for e in entries if e.images_in_study == 1]


def balance_binary(
    entries: list[ManifestEntry], seed: int
) -> list[tuple[ManifestEntry, str]]:
    """Build a 1:1 negative/positive pool.

    All of the smaller side is kept; the larger side is sampled down to it
    uniformly without replacement (seeded). Output is negatives then
    positives, each in input order.
    """
    negatives = [e for e in entries if e.label == NEGATIVE_LABEL]
    positives = [e for e in entries if e.label != NEGATIVE_LABEL]
    if not negatives or not positives:
        raise ValidationError("balance_binary needs both negative and positive entries")
    n = min(len(negatives), len(positives))
    rng = np.random.default_rng(seed)

    def sample_side(side: list[ManifestEntry]) -> list[ManifestEntry]:
        if len(side) == n:
            return list(side)
        keep = rng.choice(len(side), size=n, replace=False)
        keep_set = set(int(i) for i in keep)
        return [e for i, e in enumerate(side) if i in keep_set]

    pool = [(e, BINARY_NEGATIVE) for e in sample_side(negatives)]
    pool += [(e, BINARY_POSITIVE) for e in sample_side(positives)]
    return pool


def allocate_largest_remainder(n: int, ratios) -> list[int]:
    """Split n into len(ratios) integer parts by largest-remainder rounding.

    Exact targets n*ratio are floored (with a 1e-9 snap against float
    noise); leftover units go to the largest fractional remainders, ties
    resolved in ratio order (train before val before test).
    """
    targets = [n * r for r in ratios]
    # 1e-9 snap so exact products (e.g. 30*0.7) never floor one short
    floors = [math.floor(t + 1e-9) for t in targets]
    leftover = n - sum(floors)
    fracs = [t - f for t, f in zip(targets, floors)]
    order = sorted(range(len(ratios)), key=lambda i: (-fracs[i], i))
    alloc = list(floors)
    for i in order[:leftover]:
        alloc[i] += 1
    return alloc


def check_ratios(ratios) -> tuple[float, float, float]:
    """Train/val/test ratios as floats: three positive numbers summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValidationError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def stratified_split(
    entries: Iterable,
    ratios=DEFAULT_RATIOS,
    seed: int = 0,
    label_key: Callable | None = None,
) -> SplitResult:
    """Seeded stratified split with per-class largest-remainder counts.

    Within each label class (sorted) the entries are shuffled, then
    contiguous slices of the shuffle go to train/val/test per the
    allocation. Entries may be any items when ``label_key`` is given;
    ``surrogate.split_arrays`` splits array indices this way.
    """
    ratios = check_ratios(ratios)
    if label_key is None:
        label_key = lambda e: e.label

    by_class: dict = {}
    for e in entries:
        by_class.setdefault(label_key(e), []).append(e)

    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for label in sorted(by_class):
        members = by_class[label]
        perm = rng.permutation(len(members))
        shuffled = [members[int(i)] for i in perm]
        n_train, n_val, n_test = allocate_largest_remainder(len(members), ratios)
        train += shuffled[:n_train]
        val += shuffled[n_train : n_train + n_val]
        test += shuffled[n_train + n_val :]
    return SplitResult(train=train, val=val, test=test, seed=seed)


def select_cohort(
    entries: list[ManifestEntry], task: str, seed: int, ratios=DEFAULT_RATIOS
) -> SplitResult:
    """The cohort of ``task``: drop multi-image studies, balance a binary pool
    1:1, then split stratified on ``task_label``."""
    entries = exclude_multi_image_studies(entries)
    if task == "binary":
        entries = [e for e, _ in balance_binary(entries, seed)]
    return stratified_split(entries, ratios, seed, label_key=lambda e: task_label(e, task))


def entries_to_csv(entries: list[ManifestEntry]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for e in entries:
        writer.writerow([e.study_id, e.image_path, e.label, e.images_in_study])
    return out.getvalue()


def write_split(split: SplitResult, out_dir, mode: str = "multiclass") -> dict[str, Path]:
    """Write train/val/test CSVs plus a split_manifest.txt of seed and counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, entries in (("train", split.train), ("val", split.val), ("test", split.test)):
        p = out_dir / f"{name}.csv"
        p.write_text(entries_to_csv(entries), encoding="utf-8")
        paths[name] = p

    lines = [
        f"seed={split.seed}",
        f"mode={mode}",
        f"total={len(split.all_entries())}",
        f"train={len(split.train)}",
        f"val={len(split.val)}",
        f"test={len(split.test)}",
    ]
    for name, entries in (("train", split.train), ("val", split.val), ("test", split.test)):
        for label in LABELS:
            count = sum(1 for e in entries if e.label == label)
            if count:
                lines.append(f"{name}[{label}]={count}")
    manifest_path = out_dir / "split_manifest.txt"
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["split_manifest"] = manifest_path
    return paths
