"""Per-layer metrics: a workload's commands run in one process, every public
dropuq function wrapped.

Usage: python3 perfbench/traced.py WORKLOAD SEED WORK_DIR

The set-up and pipeline steps of `workloads.py` run three times in this
process, each into fresh directories: plain as a warm-up, then with the
wrappers installed, then plain again. The traced total minus the second
plain total is the tracing overhead.
Nothing under src/ is edited: a wrapper replaces each public function in
every dropuq module namespace that holds it, so names one module imports
from another (report.rle_decode, cli.build_report, ...) are covered too.
Times are inclusive and, under `cluster --jobs 2`, summed over threads.
The last line of standard output is a JSON object of metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import workloads

import dropuq
import dropuq.cli

# Layers whose call counts are reported; every wrapped layer reports its time.
COUNTED = (
    "ingest.read_sample_set", "bgm.fit_bgm", "report.build_report",
    "model.rle_decode", "model.mask_iou",
)


class Recorder:
    """Thread-safe call counts, inclusive seconds and layer-specific counts."""

    def __init__(self):
        self.lock = threading.Lock()
        self.mask_lock = threading.Lock()
        self.local = threading.local()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.extra = defaultdict(int)

    def add(self, layer: str, seconds: float) -> None:
        with self.lock:
            self.calls[layer] += 1
            self.seconds[layer] += seconds

    def count(self, name: str, value: float) -> None:
        with self.lock:
            self.extra[name] += value

    def peak(self, name: str, value: float) -> None:
        with self.lock:
            self.extra[name] = max(self.extra[name], value)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = self._call(layer, fn, args, kwargs)
            finally:
                self.add(layer, time.perf_counter() - start)
            return result

        return timed

    def _call(self, layer, fn, args, kwargs):
        if layer == "report.mask_stats":
            # tracemalloc only around mask_stats, one call at a time.
            with self.mask_lock:
                tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            self.peak("report.mask_stats_peak_mb", peak / 2**20)
            return result
        if layer == "clustering.split_oversized":
            self.local.splitting = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self.local.splitting = False
            self.count("clustering.splits_refused", sum(c.split_refused for c in result))
            return result
        result = fn(*args, **kwargs)
        if layer == "model.rle_decode":
            mask = args[0] if args else kwargs["mask"]
            self.count("model.pixels_decoded", mask.height * mask.width)
        elif layer == "bgm.fit_bgm":
            self.count("bgm.iterations", result.n_iter)
            if not getattr(self.local, "splitting", False):
                self.count("bgm.effective_components", result.effective_components)
        return result


def dropuq_modules():
    names = [m.name for m in pkgutil.iter_modules(dropuq.__path__) if not m.name.startswith("_")]
    return [dropuq] + [importlib.import_module(f"dropuq.{n}") for n in names]


def install(recorder: Recorder):
    """Replace every public dropuq function, wherever a module holds it.

    Returns (module, name, original) triples that undo the replacement.
    """
    modules = dropuq_modules()
    wrappers = {}
    for mod in modules[1:]:
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                layer = f"{mod.__name__.split('.')[-1]}.{name}"
                wrappers[obj] = recorder.wrap(layer, obj)
    originals = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                originals.append((mod, name, obj))
    return originals


def run_steps(workload: str, seed: int, work: Path) -> float:
    """Set-up and pipeline steps in this process; returns their wall time."""
    spec_dir, in_dir = work / "specs", work / "in"
    workloads.write_specs(workload, seed, spec_dir)
    in_dir.mkdir(parents=True)
    steps = workloads.setup_steps(workload, seed, spec_dir, in_dir)
    steps += workloads.pipeline_steps(workload, seed, in_dir, work / "out")
    start = time.perf_counter()
    for step in steps:
        if step[0] == "records":
            workloads.write_records(step[1], int(step[2]))
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            code = dropuq.cli.main(step[1:])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {' '.join(step)}")
    return time.perf_counter() - start


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    run_steps(workload, seed, work / "warm-up")
    recorder = Recorder()
    originals = install(recorder)
    traced = run_steps(workload, seed, work / "traced")
    for mod, name, fn in originals:
        setattr(mod, name, fn)
    plain = run_steps(workload, seed, work / "plain")
    metrics = {f"{layer}_s": s for layer, s in recorder.seconds.items()}
    metrics.update({f"{layer}_calls": recorder.calls[layer] for layer in COUNTED})
    metrics.update(recorder.extra)
    metrics["trace.untraced_s"] = plain
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - plain
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
