#!/usr/bin/env python3
"""End-to-end benchmark of the dropuq CLI on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {masks,crowded,calib} --seed N \
        --seconds S --trace {0,1}

A run makes the workload's inputs from the seed several times (set-up),
runs the workload's CLI command sequence once untimed (warm-up), then
repeats it, each time into a fresh output directory, until S seconds of
passes have been measured. The warm-up pass is checked by `checks.py`;
every later pass must produce a byte-identical output tree. Every child
process runs with one BLAS/OpenMP thread.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, which
come from the untraced passes (cli.*) and from `traced.py`, which runs the
same commands in one process with every public dropuq function wrapped.
One CLI invocation or one output check is one operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 3          # set-ups per run; setup_s is their median
STARTUPS = 3        # `dropuq --version` timings per traced run
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "quality": "1"}
COMMANDS = ("synth", "cluster", "report", "eval", "calibrate")
_SECONDS = (
    "cli.startup_s", *(f"cli.{c}_s" for c in COMMANDS),
    "ingest.read_sample_set_s", "ingest.filter_background_s",
    "bgm.fit_bgm_s", "clustering.cluster_pipeline_s", "clustering.split_oversized_s",
    "clustering.build_instance_clusters_s", "ward.fit_agglomerative_s",
    "report.mask_stats_s", "report.iou_to_mean_s", "model.rle_decode_s",
    "report.box_stats_s", "report.class_stats_s", "report.kde_s", "report.report_to_json_s",
    "figures.box_figure_s", "figures.class_figure_s", "figures.kde_figure_s",
    "figures.heatmap_figure_s", "report.write_pgm_s",
    "evaluation.read_ground_truth_s", "evaluation.match_and_score_s",
    "calibration.read_calibration_records_s", "calibration.fit_temperature_s",
    "calibration.reliability_s", "figures.reliability_figure_s",
    "synth.generate_s", "synth.generate_calibration_records_s",
    "machine.ref_s", "trace.untraced_s", "trace.traced_s", "trace.overhead_s",
)
_COUNTS = (
    "cli.files_written", "ingest.read_sample_set_calls", "bgm.fit_bgm_calls",
    "bgm.iterations", "bgm.effective_components", "clustering.splits_refused",
    "report.build_report_calls", "model.rle_decode_calls", "model.pixels_decoded",
    "model.mask_iou_calls",
)
PER_LAYER = {
    **{name: "s" for name in _SECONDS},
    **{name: "count" for name in _COUNTS},
    "cli.bytes_written": "bytes",
    "report.mask_stats_peak_mb": "MB",
}


class Run:
    """Operation counts and child-process plumbing of one benchmark run."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def argv(self, step: List[str]) -> List[str]:
        if step[0] == "dropuq":
            return [sys.executable, "-m", "dropuq", *step[1:]]
        return [sys.executable, str(HERE / "workloads.py"), *step[1:]]

    def execute(self, step: List[str]):
        """Run one step in its own process: (wall seconds, max RSS in MB)."""
        self.attempted += 1
        err_path = self.run_dir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(step), env=self.env, cwd=ROOT,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            print(f"failed ({proc.returncode}): {' '.join(step)}\n{err_path.read_text()}",
                  file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            print(f"check failed: {name} {detail}", file=sys.stderr)


def machine_ref() -> float:
    """Time of a fixed CPU loop: shows when the machine itself was slow."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - start


def output_size(root: Path):
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dropuq" / "cli.py").is_file():
        print(f"perfbench: no dropuq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    failures = checks.selftest()
    if failures:
        print(f"perfbench: oracle self-test failed: {failures}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(Run(run_dir), args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def measure(run: Run, args) -> dict:
    w, seed, d = args.workload, args.seed, run.run_dir
    spec_dir = d / "specs"
    workloads.write_specs(w, seed, spec_dir)

    # Set-up: every repetition must write byte-identical inputs.
    setup_times, digests = [], set()
    for i in range(SETUPS):
        in_dir = d / f"in{i}"
        in_dir.mkdir()
        setup_times.append(sum(
            run.execute(step)[0] for step in workloads.setup_steps(w, seed, spec_dir, in_dir)
        ))
        digests.add(checks.tree_digest(in_dir))
    run.record("set-up is deterministic", len(digests) == 1)
    in_dir = d / "in0"

    # Warm-up pass, untimed; its outputs get the full checks.
    steps = lambda out: workloads.pipeline_steps(w, seed, in_dir, out)  # noqa: E731
    ref = d / "pass0"
    peak = max(run.execute(step)[1] for step in steps(ref))
    try:
        found, quality = checks.check(w, in_dir, ref)
    except (OSError, KeyError, ValueError) as exc:
        found, quality = [("outputs readable", False, repr(exc))], 0.0
    for name, ok, detail in found:
        run.record(name, ok, detail)
    ref_digest = checks.tree_digest(ref)
    files_written, bytes_written = output_size(ref)

    # Measured passes: whole passes until the run length is used up.
    times: List[List[float]] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        out = d / f"pass{len(times) + 1}"
        row = []
        for step in steps(out):
            wall, rss = run.execute(step)
            row.append(wall)
            peak = max(peak, rss)
        times.append(row)
        run.record(f"pass {len(times)} output equals the checked pass",
                   checks.tree_digest(out) == ref_digest)
        shutil.rmtree(out)
    medians = [statistics.median(col) for col in zip(*times)]

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": sum(medians),
            "peak_rss_mb": peak,
            "quality": quality,
        }
        units = END_TO_END
    else:
        metrics = {f"cli.{c}_s": 0.0 for c in COMMANDS}
        for step, med in zip(steps(ref), medians):
            metrics[f"cli.{step[1]}_s"] += med
        if w != "calib":
            metrics["cli.synth_s"] = statistics.median(setup_times)
        metrics["cli.startup_s"] = statistics.median(
            run.execute(["dropuq", "--version"])[0] for _ in range(STARTUPS)
        )
        metrics["cli.files_written"] = files_written
        metrics["cli.bytes_written"] = bytes_written
        metrics["machine.ref_s"] = statistics.median(machine_ref() for _ in range(3))
        metrics.update(traced(run, w, seed, d / "traced"))
        units = PER_LAYER
        metrics = {name: metrics.get(name, 0) for name in units}
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced(run: Run, workload: str, seed: int, work: Path) -> Dict[str, float]:
    """Per-layer metrics from one traced.py process (one operation)."""
    run.attempted += 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), workload, str(seed), str(work)],
        env=run.env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        run.failed += 1
        print(f"traced run failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
