import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl


@pytest.fixture
def spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def test_exact_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]


def test_each_workload_records_its_reason(spec):
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metrics_match_what_the_benchmark_prints(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in wl.LAYER_METRICS.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_layer_metric_maps_to_an_end_to_end_metric_and_workloads():
    for name, (_, _, moves, where) in wl.LAYER_METRICS.items():
        assert moves in wl.END_TO_END, name
        assert where and set(where) <= set(wl.WORKLOADS), name


def test_fails_without_printing_in_a_bare_checkout(root, tmp_path):
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sphere", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_prints_every_layer_metric(root):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sphere", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: spec[0] for name, spec in wl.LAYER_METRICS.items()
    }
    assert len(record["record"]["journal_sha256"]) == 1  # traced and untraced agree
    assert result["metrics"]["samplers.grid_cells_per_ask"]["value"] == 10**4
