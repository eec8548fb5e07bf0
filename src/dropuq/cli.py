"""Command-line surface: synth, cluster, report, calibrate, eval.

Every command writes a manifest.json into the output directory before any
other artifact, uses write-temp-then-rename for atomicity, and derives all
sub-seeds from the single --seed flag via a counter-based SHA-256 scheme
(see derive_seed), so identical inputs and seed give byte-identical output
trees. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import List, NoReturn, Optional, Tuple

from . import __version__

# Each command imports the modules it runs inside its own functions, so a
# process loads only those: with bytecode writing off, every module loaded
# is compiled from source on each run.

USAGE_ERROR = 1
DATA_ERROR = 2
MAX_BINS = 1000  # reliability scans every record once per bin


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str, limit: Optional[int] = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"must be <= {limit}, got {value}")
    return value


def derive_seed(master: int, *tokens) -> int:
    """Deterministic sub-seed: SHA-256 over the master seed and a token path."""
    import hashlib  # only synth and cluster derive seeds

    text = "dropuq:" + ":".join([str(master), *map(str, tokens)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _safe_name(image_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", image_id) or "image"


@contextmanager
def _input(noun: str, path):
    """Prefix a data error raised inside with the input it concerns, as
    ``<noun> <path>: <message>``."""
    try:
        yield
    except ValueError as exc:  # ParseError and JSONDecodeError included
        reason = f"invalid JSON ({exc})" if isinstance(exc, json.JSONDecodeError) else exc
        raise ValueError(f"{noun} {path}: {reason}") from None


def _write_manifest(args) -> Path:
    """Write manifest.json into a new or existing --out-dir and return that path.

    ``inputs`` holds the values of the file arguments the subcommand names in
    its ``inputs`` default, in that order; ``config`` holds every other option.
    """
    from .ingest import json_document, write_file

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bookkeeping = ("command", "func", "inputs", "out_dir", *args.inputs)
    config = {k: v for k, v in vars(args).items() if k not in bookkeeping}
    inputs = []
    for name in args.inputs:
        value = getattr(args, name)
        inputs += value if isinstance(value, list) else [value]
    doc = {
        "tool": "dropuq",
        "version": __version__,
        "command": args.command,
        "inputs": inputs,
        "out_dir": str(out_dir),
        "config": config,
    }
    write_file(out_dir / "manifest.json", json_document(doc).encode())
    return out_dir


def _cmd_synth(args) -> int:
    from .evaluation import serialize_ground_truth
    from .ingest import serialize_sample_set, write_file
    from .synth import generate, scene_spec_from_json

    with _input("scene spec", args.spec):
        spec = scene_spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    if args.seed is not None:
        spec = replace(spec, seed=derive_seed(args.seed, "synth", spec.image_id))
    out_dir = _write_manifest(args)
    sample_set, labels, gts = generate(spec)
    name = _safe_name(spec.image_id)
    write_file(out_dir / f"{name}_samples.jsonl", serialize_sample_set(sample_set).encode())
    write_file(out_dir / f"{name}_gt.jsonl", serialize_ground_truth(gts).encode())
    labels_doc = json.dumps({"image_id": spec.image_id, "true_labels": labels}, sort_keys=True)
    write_file(out_dir / f"{name}_labels.json", labels_doc.encode(), b"\n")
    print(
        f"{spec.image_id}: {len(sample_set)} detections, "
        f"{len(gts)} instances, {spec.n_repetitions} repetitions"
    )
    return 0


def _cluster_one(path: str, args) -> Tuple[dict, str]:
    """Cluster one samples file; returns its clusters document and summary line."""
    import numpy as np

    from .clustering import cluster_pipeline, default_split_threshold
    from .ingest import filter_background, read_sample_set

    with _input("samples file", path):
        samples = read_sample_set(path)
    filtered = filter_background(samples, args.background_threshold)  # a flag, not the file
    with _input("samples file", path):
        if not len(filtered):
            raise ValueError("nothing to cluster after background filtering")
        seed = derive_seed(args.seed, "cluster", filtered.image_id)
        split_threshold = args.split_threshold or default_split_threshold(filtered.n_repetitions)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)  # each fit's warning, not per call site
            labels, refused = cluster_pipeline(filtered, args.algorithm, split_threshold, seed)
    for w in caught:
        print(f"dropuq: warning: {path}: {w.message}", file=sys.stderr)
    sizes = np.bincount(labels).tolist()
    doc = {
        "image_id": filtered.image_id,
        "algorithm": args.algorithm,
        "seed": seed,
        "split_threshold": split_threshold,
        "background_threshold": args.background_threshold,
        "n_detections": len(filtered),
        "labels": labels.tolist(),
        "clusters": [
            {"cluster_id": i, "size": size, "split_refused": flag}
            for i, (size, flag) in enumerate(zip(sizes, refused.tolist()))
        ],
    }
    return doc, f"{filtered.image_id}: {len(sizes)} clusters (sizes {', '.join(map(str, sizes))})"


def _cmd_cluster(args) -> int:
    from .ingest import json_document, write_file

    out_dir = _write_manifest(args)
    results = [_cluster_one(p, args) for p in args.samples]
    # Every file is checked before any is written: two images that map to
    # one clusters file would otherwise overwrite each other.
    owners = {}
    for path, (doc, _) in zip(args.samples, results):
        name = f"{_safe_name(doc['image_id'])}_clusters.json"
        if name in owners:
            raise ValueError(f"{owners[name]} and {path} would both write {name}")
        owners[name] = path
    for name, (doc, line) in zip(owners, results):
        write_file(out_dir / name, json_document(doc).encode())
        print(line)
    return 0


def _load_clustered(samples_path: str, clusters_path: str):
    """Rebuild the clustering a cluster run wrote to disk: the filtered
    sample set, the members of each cluster and each cluster's split_refused
    flag.

    The fields read back are typed as strictly as the input readers type
    theirs, and the labels must number the detections and match the
    clusters list (see README); a bad field is a ValueError naming it.
    """
    import numpy as np

    from .ingest import (
        _BOOL, _INT, _OBJECT, _REAL, _STR, ParseError, _array, _scalar,
        filter_background, read_sample_set,
    )
    from .model import _double, label_groups

    with _input("clusters file", clusters_path):
        doc = json.loads(Path(clusters_path).read_text(encoding="utf-8"))
        if type(doc) is not dict:
            raise ParseError(None, f"must be a JSON object, got {type(doc).__name__}")
        image_id = _scalar(doc, "image_id", _STR, None)
        threshold = _double(_scalar(doc, "background_threshold", _REAL, None))
        n_detections = _scalar(doc, "n_detections", _INT, None)
        labels = _array(doc, "labels", _INT, None)
        if len(labels) != n_detections:
            raise ParseError(None, f"labels must hold one label per detection, "
                                   f"{n_detections}; got {len(labels)}")
        entries = _array(doc, "clusters", _OBJECT, None)
        k = len(entries)
        if labels and not 0 <= min(labels) <= max(labels) < k:
            bad = next(v for v in labels if not 0 <= v < k)
            raise ParseError(None, f"labels must lie in [0, {k}), got {bad}")
        counts = np.bincount(labels, minlength=k).tolist()
        for i, c in enumerate(entries):
            if (cid := _scalar(c, "cluster_id", _INT, None)) != i:
                raise ParseError(None, f"clusters[{i}].cluster_id must be {i}, got {cid}")
            if (size := _scalar(c, "size", _INT, None)) != counts[i] or size < 1:
                raise ParseError(None, f"clusters[{i}].size must be >= 1 and equal the "
                                       f"count of label {i}, {counts[i]}; got {size}")
        flags = [_scalar(c, "split_refused", _BOOL, None) for c in entries]
    with _input("samples file", samples_path):
        samples = read_sample_set(samples_path)
    with _input("clusters file", clusters_path):
        filtered = filter_background(samples, threshold)
        if filtered.image_id != image_id:
            raise ValueError(
                f"image_id is {image_id!r} but the samples are of image {filtered.image_id!r}"
            )
        if len(filtered) != n_detections:
            raise ValueError(
                f"n_detections is {n_detections} but the samples give {len(filtered)} "
                f"after background filtering"
            )
    # Every label in [0, k) occurs, so cluster i is entry i of the file.
    return filtered, [filtered.take(g) for g in label_groups(labels)], flags


def _cmd_report(args) -> int:
    from .figures import box_figure, class_figure, heatmap_figure, kde_figure
    from .ingest import write_file
    from .report import build_report, report_to_json, write_pgm

    out_dir = _write_manifest(args)
    filtered, clusters, flags = _load_clustered(args.samples, args.clusters)
    name = _safe_name(filtered.image_id)
    for i, (members, refused) in enumerate(zip(clusters, flags)):
        rep = build_report(members, mask_threshold=args.mask_threshold)
        stem = f"{name}_cluster_{i:03d}"
        write_file(out_dir / f"{stem}_report.json", report_to_json(rep, i, refused).encode())
        box_svg = box_figure(rep, filtered.width, filtered.height)
        write_file(out_dir / f"{stem}_box.svg", box_svg.encode())
        write_file(out_dir / f"{stem}_classes.svg", class_figure(rep).encode())
        write_file(out_dir / f"{stem}_kde.svg", kde_figure(rep.box_kde, rep.mask_kde).encode())
        masks = rep.mask_stats
        if not masks.zero_mask:
            for kind, values in (("mean", masks.mean_mask), ("std", masks.std_mask)):
                write_pgm(values, out_dir / f"{stem}_mask_{kind}.pgm")
                write_file(out_dir / f"{stem}_mask_{kind}.svg", heatmap_figure(values).encode())
        flag = " zero_mask" if masks.zero_mask else ""
        print(f"{filtered.image_id} cluster {i}: {len(members)} members{flag}")
    return 0


def _cmd_calibrate(args) -> int:
    from .calibration import (
        ace,
        fit_temperature,
        mce,
        read_calibration_records,
        reliability,
        reliability_csv,
    )
    from .figures import reliability_figure
    from .ingest import json_document, write_file

    out_dir = _write_manifest(args)
    with _input("records file", args.records):
        records = read_calibration_records(args.records)
        if not records:
            raise ValueError("no calibration records")
    before = reliability(records, 1.0, args.bins)
    temperature = fit_temperature(records)
    after = reliability(records, temperature, args.bins)
    result = {
        "temperature": temperature,
        "mce_before": mce(before),
        "mce_after": mce(after),
        "ace_before": ace(before),
        "ace_after": ace(after),
        "already_calibrated": 0.95 <= temperature <= 1.05,
    }
    write_file(out_dir / "temperature.json", json_document(result).encode())
    for when, bins in (("before", before), ("after", after)):
        write_file(out_dir / f"reliability_{when}.csv", reliability_csv(bins).encode())
        svg = reliability_figure(bins, f"{when} calibration")
        write_file(out_dir / f"reliability_{when}.svg", svg.encode())
    print(f"temperature: {temperature:.4f}")
    print(f"mce: {result['mce_before']:.4f} -> {result['mce_after']:.4f}")
    print(f"ace: {result['ace_before']:.4f} -> {result['ace_after']:.4f}")
    if result["already_calibrated"]:
        print("note: records look already calibrated (T within [0.95, 1.05])")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import cluster_to_detection, eval_csv, match_and_score, read_ground_truth
    from .ingest import write_file

    out_dir = _write_manifest(args)
    filtered, clusters, _ = _load_clustered(args.samples, args.clusters)
    with _input("ground-truth file", args.gt):
        gts = read_ground_truth(args.gt, filtered.image_id, filtered.height, filtered.width)
    modes = ["box", "mask"] if args.mode == "both" else [args.mode]
    preds = [cluster_to_detection(c, args.mask_threshold, "mask" in modes) for c in clusters]
    results = [match_and_score(preds, gts, mode=m) for m in modes]
    write_file(out_dir / "eval.csv", eval_csv(results).encode())
    for res in results:
        value = "n/a" if res.map50 is None else f"{res.map50:.4f}"
        print(f"mAP@0.5 ({res.mode}): {value}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dropuq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dropuq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene from a spec file")
    p.add_argument("spec", help="scene spec JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_synth, inputs=("spec",))

    p = sub.add_parser("cluster", help="cluster sampled detections into instances")
    p.add_argument("samples", nargs="+", help="prediction-sample files")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="recorded in the manifest only; images are clustered one after another",
    )
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument(
        "--algorithm", choices=("bgm", "agg"), default="bgm", help="clustering algorithm"
    )
    p.add_argument(
        "--split-threshold", type=_positive_int, default=None,
        help="re-cluster groups larger than this (default: 1.5 x repetitions)",
    )
    p.add_argument("--background-threshold", type=float, default=0.45)
    p.set_defaults(func=_cmd_cluster, inputs=("samples",))

    p = sub.add_parser("report", help="per-cluster uncertainty reports and figures")
    p.add_argument("samples", help="prediction-sample file")
    p.add_argument("--clusters", required=True, help="clusters file from 'cluster'")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--mask-threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_report, inputs=("samples", "clusters"))

    p = sub.add_parser("calibrate", help="fit temperature and reliability metrics")
    p.add_argument("records", help="calibration records file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--bins", type=lambda text: _positive_int(text, MAX_BINS), default=10)
    p.set_defaults(func=_cmd_calibrate, inputs=("records",))

    p = sub.add_parser("eval", help="mAP@0.5 against ground truth")
    p.add_argument("samples", help="prediction-sample file")
    p.add_argument("--clusters", required=True)
    p.add_argument("--gt", required=True, help="ground-truth file")
    p.add_argument("--mode", choices=("box", "mask", "both"), default="both")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--mask-threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_eval, inputs=("samples", "clusters", "gt"))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # ParseError, JSONDecodeError are ValueErrors
        print(f"dropuq: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"  # MemoryError() has no message
        print(f"dropuq: error: out of memory ({reason})", file=sys.stderr)
        return DATA_ERROR


def run() -> NoReturn:
    """The ``dropuq`` command: main, then os._exit, skipping the atexit
    handlers, finalizers and final garbage collection of the interpreter's
    teardown. Every output file is closed by then (write_file), so only the
    standard streams need a flush. If one fails, as on a pipe whose reader
    has gone, sys.exit lets the interpreter report it and exit with 120."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
