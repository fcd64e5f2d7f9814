"""Run-to-run spread of the benchmark: runs ``run.py`` once per seed and
prints, for each metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) beside the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload tpe-sphere --seeds 1-10 [--trace 0]

One run at a time; each run's record and result lines go to stderr as they arrive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        line = lines[-1] if lines else ""
        print(f"seed {seed} exit {proc.returncode}", *lines, sep="\n", file=sys.stderr, flush=True)
        if proc.returncode != 0 or not line:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(line)
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
