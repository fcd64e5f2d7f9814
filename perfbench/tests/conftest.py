import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

# A small pruned surrogate study: every record kind, a few seconds at most.
SMALL_STUDY = ["policy.n_trials=6", "epochs=3", "pruner.min_completed=2"]


@pytest.fixture
def root():
    return ROOT


@pytest.fixture
def small_bench(tmp_path, monkeypatch):
    """A Bench over the shipped pruned config, shrunk, in a scratch dir."""
    import workloads as wl
    from run import Bench
    from studyforge import cli

    workload = wl.Workload(
        name="small",
        config="configs/pruned_surrogate.yaml",
        overrides=tuple(SMALL_STUDY),
        seed_keys=("seed",),
        why="test",
    )
    monkeypatch.chdir(tmp_path)
    return Bench(ROOT, workload, seed=1, cli=cli)
