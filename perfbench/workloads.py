"""Workload definitions: inputs made from the seed, and the command sequences.

A step is a list of strings. Steps that start with "dropuq" are CLI
invocations (the rest is the argv of `python -m dropuq`); the one step that
starts with "records" writes calibration records through `write_records`.
The untraced benchmark runs each step in its own process; the traced run
executes the same steps inside one process.

Run as a script, `python3 perfbench/workloads.py PATH SEED` writes the
calibration records of the `calib` workload to PATH.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import List

WORKLOADS = ("masks", "crowded", "calib")

# masks: shaped like the runtime scene of the acceptance tests (ellipse
# masks on a 480x640 image, 100 repetitions, confusion 0.15, mask noise
# 0.1), with 3 instances instead of 10 so that a run holds four passes.
MASK_INSTANCES = 3
MASK_REPETITIONS = 100
# crowded: box-only instances on a 6 x 6 grid with 140 px spacing, sigma 3,
# 30 repetitions, in two images. How many iterations BGM takes depends on
# the noise draw: over ten draws of this scene its work (points x
# components x E-steps) had an interquartile range of 45% of the median.
# So the box sizes, the jitter draw (synth seed) and the cluster seed are
# fixed; the benchmark seed shifts the whole scene and rotates the class
# ids, which leaves BGM's arithmetic unchanged and changes every file.
CROWD_SIDE = 6
CROWD_REPETITIONS = 30
CROWD_SPLIT_THRESHOLD = 45          # 1.5 x repetitions, as 150 is for 100
CROWD_IMAGES = ("crowd_a", "crowd_b")
CROWD_FIXED_SEED = 0
CROWD_SHIFT = 100                   # the scene moves by up to this many px
# calib: records whose NLL-optimal temperature is about 2.
CALIB_RECORDS = 100_000
CALIB_CLASSES = 9
CALIB_TEMPERATURE = 2.0


def _instance(rng: random.Random, cx: float, cy: float, class_id: int, **extra) -> dict:
    w = rng.uniform(34.0, 70.0)
    h = rng.uniform(34.0, 70.0)
    return {
        "box": [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2],
        "class_id": class_id,
        "box_jitter_sigma": 3.0,
        "miss_rate": 0.0,
        **extra,
    }


def scene_specs(workload: str, seed: int) -> dict:
    """Scene spec documents (file name -> JSON document) for a scene workload."""
    rng = random.Random(seed)
    if workload == "masks":
        instances = [
            _instance(
                rng, 90 + 140 * (i % 4), 90 + 140 * (i // 4), 1 + i % 3,
                shape="ellipse", class_confusion=0.15, mask_noise=0.1,
            )
            for i in range(MASK_INSTANCES)
        ]
        return {
            "masks.json": {
                "image_id": "masks", "height": 480, "width": 640, "num_classes": 3,
                "n_repetitions": MASK_REPETITIONS, "seed": 0, "instances": instances,
            }
        }
    if workload == "crowded":
        sizes = random.Random(CROWD_FIXED_SEED)
        side = 180 + 140 * (CROWD_SIDE - 1) + CROWD_SHIFT
        dx, dy = rng.uniform(0.0, CROWD_SHIFT), rng.uniform(0.0, CROWD_SHIFT)
        specs = {}
        for image_id in CROWD_IMAGES:
            instances = [
                _instance(
                    sizes, dx + 90 + 140 * (i % CROWD_SIDE), dy + 90 + 140 * (i // CROWD_SIDE),
                    1 + (i + seed) % 3, shape="none", class_confusion=0.1, mask_noise=0.0,
                )
                for i in range(CROWD_SIDE * CROWD_SIDE)
            ]
            specs[f"{image_id}.json"] = {
                "image_id": image_id, "height": side, "width": side, "num_classes": 3,
                "n_repetitions": CROWD_REPETITIONS, "seed": 0, "instances": instances,
            }
        return specs
    return {}


def write_specs(workload: str, seed: int, spec_dir: Path) -> None:
    spec_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in scene_specs(workload, seed).items():
        (spec_dir / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def setup_steps(workload: str, seed: int, spec_dir: Path, in_dir: Path) -> List[List[str]]:
    """Steps that generate the workload's inputs into in_dir."""
    if workload == "calib":
        return [["records", str(in_dir / "records.jsonl"), str(seed)]]
    noise = CROWD_FIXED_SEED if workload == "crowded" else seed
    return [
        ["dropuq", "synth", str(spec_dir / name), "--out-dir", str(in_dir), "--seed", str(noise)]
        for name in sorted(scene_specs(workload, seed))
    ]


def pipeline_steps(workload: str, seed: int, in_dir: Path, out_dir: Path) -> List[List[str]]:
    """The workload's CLI command sequence, writing below out_dir."""
    s = str(seed)
    if workload == "masks":
        samples = str(in_dir / "masks_samples.jsonl")
        clusters = str(out_dir / "cluster" / "masks_clusters.json")
        return [
            ["dropuq", "cluster", samples, "--out-dir", str(out_dir / "cluster"), "--seed", s],
            ["dropuq", "report", samples, "--clusters", clusters,
             "--out-dir", str(out_dir / "report")],
            ["dropuq", "eval", samples, "--clusters", clusters,
             "--gt", str(in_dir / "masks_gt.jsonl"), "--mode", "both",
             "--out-dir", str(out_dir / "eval")],
        ]
    if workload == "crowded":
        samples = [str(in_dir / f"{i}_samples.jsonl") for i in CROWD_IMAGES]
        steps = [
            ["dropuq", "cluster", *samples, "--jobs", "2",
             "--split-threshold", str(CROWD_SPLIT_THRESHOLD),
             "--out-dir", str(out_dir / "bgm"), "--seed", str(CROWD_FIXED_SEED)],
            ["dropuq", "cluster", *samples, "--algorithm", "agg", "--jobs", "2",
             "--out-dir", str(out_dir / "agg"), "--seed", str(CROWD_FIXED_SEED)],
        ]
        for image_id, path in zip(CROWD_IMAGES, samples):
            clusters = str(out_dir / "bgm" / f"{image_id}_clusters.json")
            steps.append(["dropuq", "report", path, "--clusters", clusters,
                          "--out-dir", str(out_dir / f"report_{image_id}")])
            steps.append(["dropuq", "eval", path, "--clusters", clusters,
                          "--gt", str(in_dir / f"{image_id}_gt.jsonl"), "--mode", "box",
                          "--out-dir", str(out_dir / f"eval_{image_id}")])
        return steps
    return [["dropuq", "calibrate", str(in_dir / "records.jsonl"), "--bins", "10",
             "--out-dir", str(out_dir / "calibrate")]]


def write_records(path: str, seed: int) -> None:
    """Generate and serialise the calib workload's records (needs dropuq importable)."""
    from dropuq import calibration, synth

    records = synth.generate_calibration_records(
        CALIB_RECORDS, CALIB_TEMPERATURE, CALIB_CLASSES, seed=seed
    )
    Path(path).write_text(calibration.serialize_calibration_records(records), encoding="utf-8")


if __name__ == "__main__":
    write_records(sys.argv[1], int(sys.argv[2]))
