"""studyforge benchmark: one workload, one trial thread, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload tpe-sphere --seed 1 --seconds 25 --trace 0

A run measures set-up in fresh processes, runs one short warm-up study,
then for ``--seconds`` repeats cycles of one ``studyforge run`` on the
workload with the one given seed, followed by ``studyforge report`` plus
``studyforge best`` passes on the finished journal. Every command runs in
this process, is timed from outside, and has its outputs checked.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
half the repetitions run under the outside-in tracer (``tracer.py``) and
the metrics are the per-layer ones. The last line of stdout is the result
object; the line before it is the record: machine, per-repetition noise,
sample counts, trial states, journal digests and any check failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import layers
import record
import workloads as wl
from tracer import Tracer, install

SETUP_PROCESSES = 7
REPORT_SHARE = 0.15  # report passes after each run, as a share of its wall time
# The machines this was tuned on have spells, from seconds to a minute long,
# that run 1.3-1.6x faster or slower; the median of three or more
# repetitions is not moved by one short spell.
MIN_CYCLES = 3
EXACT_COUNTS = (
    "augment.apply_affine_calls",
    "surrogate.adam_steps",
    "samplers.fit_parzen_calls",
    "samplers.grid_cells_per_ask",
    "study.rescan_calls",
    "pruning.should_prune_calls",
    "pruning.pruned_ratio",
    "pruning.wasted_epoch_ratio",
    "journal.records_per_trial",
    "journal.bytes_per_trial",
    "journal.fsync_calls",
)
NOT_EXERCISED = {
    "manifest": "every workload trains on the synthetic dataset, so no manifest is read",
    "threads": "every workload runs max_parallel 1; the thread pool has no workload yet",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """Runs one workload's commands in a scratch directory and keeps the tally."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int, cli):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.config = str(root / workload.config)
        self.overrides = workload.run_overrides(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_sha: str | None = None

    # --- commands ---------------------------------------------------------

    def command(self, argv: list[str]) -> tuple[int, str, float, str]:
        """One studyforge command in this process: (exit code, stdout, wall s, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, reported with its traceback
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        return code, out.getvalue(), wall, err.getvalue()

    def settle(self, label: str, code: int, stderr: str, problems: list[str]) -> None:
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def study_run(self, extra: tuple[str, ...] = (), out_dir: str = "out") -> dict:
        sets = [*self.overrides, *extra, f"output_dir={out_dir}"]
        argv = ["run", self.config, *(arg for s in sets for arg in ("--set", s))]
        with record.NoiseProbe() as noise:
            code, _, wall, err = self.command(argv)
        journal = Path(out_dir) / "journal.jsonl"
        if code != 0 or not journal.exists():
            self.settle("run", code or 1, err, ["no journal written"] if code == 0 else [])
            return {"wall_s": wall, "trials": 0, "trials_per_s": 0.0, "sha256": None}
        problems = checks.check_journal(journal)
        sha = checks.sha256(journal)
        facts = checks.trial_facts(journal)
        if out_dir == "out":
            if self.first_sha is None:
                self.first_sha = sha
            elif sha != self.first_sha:
                problems.append("journal bytes differ from the first repetition")
        self.settle("run", code, err, problems)
        return {
            "wall_s": wall,
            "trials": facts["trials"],
            "trials_per_s": facts["trials"] / wall,
            "sha256": sha,
            "facts": facts,
            "noise": noise.as_dict(),
        }

    def report_pass(self, out_dir: str = "out") -> float:
        """``report`` then ``best`` on a finished journal; returns their wall time."""
        journal = str(Path(out_dir) / "journal.jsonl")
        rebuilt = Path(f"{out_dir}-report")
        shutil.rmtree(rebuilt, ignore_errors=True)
        code, _, report_s, err = self.command(["report", journal, "--out", str(rebuilt)])
        self.settle("report", code, err, checks.check_same_files(out_dir, rebuilt) if code == 0 else [])
        code, stdout, best_s, err = self.command(["best", journal])
        problems = checks.check_best(journal, Path(out_dir) / "best.json", stdout) if code == 0 else []
        self.settle("best", code, err, problems)
        return report_s + best_s

    def setup_processes(self, n: int) -> tuple[list[float], list[dict]]:
        """Wall time of ``n`` fresh processes that import, parse and build."""
        cmd = [sys.executable, "perfbench/setup_probe.py", self.workload.config, *self.overrides]
        walls, phases = [], []
        for _ in range(n):
            self.attempted += 1
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                self.settle("setup", 1, "timed out after 120 s", [])
                continue
            walls.append(time.perf_counter() - start)
            try:
                phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            except (IndexError, ValueError):
                self.settle("setup", proc.returncode or 1, proc.stderr, ["no phase timings printed"])
                continue
            self.settle("setup", proc.returncode, proc.stderr, [])
        return walls, phases

    # --- repetition loops -------------------------------------------------

    def cycles(self, budget_s: float, min_cycles: int, on_run=None, on_report=None):
        """Repeat cycles of one ``run`` followed by ``report`` + ``best``
        passes for REPORT_SHARE of the run's wall time, so both are sampled
        across the whole window. Returns the runs and the report pass times.
        A cycle starts only if one more cycle of the median length still
        fits in the budget."""
        reps: list[dict] = []
        report_walls: list[float] = []
        lengths: list[float] = []
        start = time.perf_counter()
        while len(reps) < min_cycles or (
            time.perf_counter() - start + statistics.median(lengths) <= budget_s
        ):
            began = time.perf_counter()
            reps.append(self.study_run())
            if on_run is not None:
                on_run(reps[-1])
            report_walls += self.repeat_reports(REPORT_SHARE * reps[-1]["wall_s"], on_report)
            lengths.append(time.perf_counter() - began)
        return reps, report_walls

    def repeat_reports(self, budget_s: float, each=None) -> list[float]:
        walls: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < budget_s:
            walls.append(self.report_pass())
            if each is not None:
                each()
        return walls

    def warm_up(self) -> None:
        """One short study plus its report, so imports and caches are warm."""
        self.study_run(extra=(f"policy.n_trials={wl.WARMUP_TRIALS}",), out_dir="warm")
        self.report_pass(out_dir="warm")


def median_tps(reps: list[dict]) -> float:
    return statistics.median(r["trials_per_s"] for r in reps)


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping ``cut`` of them at each end.

    A report pass takes milliseconds, so passes fall inside the machine's
    fast and slow spells rather than averaging over them, and their median
    jumps between the two. The trimmed mean weighs the spells by the time
    they took, like a longer measurement would, and still drops outliers."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup_walls, _ = bench.setup_processes(SETUP_PROCESSES)
    bench.warm_up()
    reps, report_walls = bench.cycles(seconds, min_cycles=MIN_CYCLES)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": median_tps(reps),
        "report_s": trimmed_mean(report_walls),
        "setup_s": statistics.median(setup_walls) if setup_walls else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "command_ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
    }
    samples = {"run": len(reps), "report": len(report_walls), "setup": len(setup_walls)}
    return metrics, {"samples": samples, "repetitions": reps, "setup_s": setup_walls}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced repetitions, then traced ones: the per-layer metrics are
    medians over the traced repetitions, and their ratio to the untraced
    ones is the tracing overhead."""
    _, phases = bench.setup_processes(SETUP_PROCESSES)
    bench.warm_up()
    plain, _ = bench.cycles(seconds / 2, min_cycles=1)
    run_rows, report_rows, last_spans = [], [], []
    with install(Tracer()) as tracer:

        def collect_run(rep):
            if rep["trials"]:
                run_rows.append(layers.run_metrics(tracer.spans, rep["wall_s"], rep["facts"]))
                last_spans[:] = tracer.spans
            tracer.reset()

        def collect_report():
            report_rows.append(layers.report_metrics(tracer.spans))
            tracer.reset()

        traced, _ = bench.cycles(seconds / 2, min_cycles=1, on_run=collect_run, on_report=collect_report)
    if not (run_rows and report_rows and phases and median_tps(plain)):
        raise RuntimeError("no traced run, report or set-up succeeded: " + "; ".join(bench.problems))
    for key in EXACT_COUNTS:
        if len({row[key] for row in run_rows}) > 1:
            bench.problems.append(f"{key} differs between traced repetitions")
    metrics = {**layers.median_of(run_rows), **layers.median_of(report_rows)}
    metrics["orchestrator.build_data_s"] = statistics.median(p["build_data_s"] for p in phases)
    metrics["config.parse_s"] = statistics.median(p["parse_s"] for p in phases)
    metrics["setup.import_s"] = statistics.median(p["import_s"] for p in phases)
    metrics["trace.overhead_ratio"] = median_tps(traced) / median_tps(plain)
    spans_path = bench.root / ".perfbench-out" / f"{bench.workload.name}-seed{bench.seed}-spans.json"
    spans_path.write_text(json.dumps(last_spans))
    samples = {"run": len(plain), "traced_run": len(traced), "report": len(report_rows), "setup": len(phases)}
    return metrics, {
        "samples": samples,
        "repetitions": plain + traced,
        "spans_of_last_traced_run": str(spans_path.relative_to(bench.root)),
        "span_summary": layers.span_summary(last_spans),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "studyforge" / "__init__.py").is_file():
        print("perfbench: src/studyforge not found; run from the repository root", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if not (root / workload.config).is_file():
        print(f"perfbench: config {workload.config} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from studyforge import cli

    os.environ.pop(cli.SEED_ENV, None)  # the study seed comes from --seed alone

    scratch_parent = root / ".perfbench-out"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_parent))
    bench = Bench(root, workload, args.seed, cli)
    try:
        os.chdir(scratch)
        if args.trace:
            metrics, detail = per_layer(bench, args.seconds)
            units = {name: spec[0] for name, spec in wl.LAYER_METRICS.items()}
        else:
            metrics, detail = end_to_end(bench, args.seconds)
            units = wl.END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(root)
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_parent.rmdir()

    reps = detail["repetitions"]
    trial_states = reps[0]["facts"]["states"] if reps and "facts" in reps[0] else {}
    print(json.dumps({"record": {
        "workload": workload.name,
        "seed": args.seed,
        "seed_applied_to": list(workload.seed_keys),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": record.machine(root),
        "trial_states": trial_states,
        "journal_sha256": sorted({r["sha256"] for r in reps if r.get("sha256")}),
        "not_exercised": NOT_EXERCISED,
        "problems": bench.problems,
        **detail,
    }}, default=str))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
