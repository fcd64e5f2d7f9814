"""What the machine was doing: recorded beside the metrics, never used to
scale them, so a reader can tell machine drift from a regression."""

from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path

import numpy as np


def steal_ticks() -> int | None:
    """Hypervisor steal ticks summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def involuntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw


def reference_loop_s() -> float:
    """A fixed numpy loop that calls no studyforge code."""
    a = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
    start = time.perf_counter()
    for _ in range(2000):
        b = a @ a
        np.maximum(b, 0.5, out=b)
        b.sum()
    return time.perf_counter() - start


class NoiseProbe:
    """Steal ticks, involuntary context switches and the reference loop
    around one repetition."""

    def __enter__(self):
        self.reference_s = reference_loop_s()
        self._steal = steal_ticks()
        self._switches = involuntary_switches()
        return self

    def __exit__(self, *exc):
        steal = steal_ticks()
        self.steal_ticks = None if steal is None or self._steal is None else steal - self._steal
        self.involuntary_switches = involuntary_switches() - self._switches

    def as_dict(self) -> dict:
        return {
            "steal_ticks": self.steal_ticks,
            "involuntary_switches": self.involuntary_switches,
            "reference_loop_s": self.reference_s,
        }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_rev(root: Path) -> str:
    """HEAD of a checkout, read from .git without running git; a checkout
    that is not a repository gives "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(root),
    }
