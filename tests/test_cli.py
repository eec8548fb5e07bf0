import argparse
import hashlib
import importlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import dropuq
from _scenes import mixed_shape_scene, overlapping_scene, separated_scene
from dropuq.calibration import serialize_calibration_records
from dropuq.cli import _parser
from dropuq.ingest import MAX_PIXELS, serialize_sample_set
from dropuq.synth import (
    MAX_DETECTIONS, InstanceSpec, SceneSpec, generate, generate_calibration_records,
    scene_spec_to_json,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(buffered=False):
    """The environment of a child that imports dropuq from the source tree;
    with ``buffered``, PYTHONUNBUFFERED is dropped, so that the child's
    standard output is block-buffered into a pipe, as by default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def run_cli(*argv, check=True, address_space=None, input=None, buffered=False):
    """Run the CLI in a child process, ``input`` piped to its standard input;
    address_space caps only the child's RLIMIT_AS."""
    env = child_env(buffered)
    limit = None
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread BLAS buffers count against the cap

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    result = subprocess.run(
        [sys.executable, "-m", "dropuq", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        input=input,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"dropuq {' '.join(map(str, argv))} failed rc={result.returncode}\n"
            f"stdout: {result.stdout}\nstderr: {result.stderr}"
        )
    return result


def snapshot(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_digest(root: Path):
    """(SHA-256 over the relative path and contents of every file under root,
    manifest.json aside; the count of those files)."""
    digest, count = hashlib.sha256(), 0
    for name, data in snapshot(root).items():
        if Path(name).name != "manifest.json":
            digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
            count += 1
    return digest.hexdigest(), count


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scene")
    spec = separated_scene(
        0, 2, sigma=2.0, n_repetitions=40, shape="ellipse",
        class_confusion=0.15, mask_noise=0.1, height=200, width=280,
    )
    path = tmp / "scene.json"
    path.write_text(scene_spec_to_json(spec))
    return path


@pytest.fixture(scope="module")
def pipeline_dirs(scene_file, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    run_cli("synth", scene_file, "--out-dir", tmp / "synth", "--seed", "5")
    samples = tmp / "synth" / "scene0_samples.jsonl"
    run_cli("cluster", samples, "--out-dir", tmp / "clusters", "--seed", "5")
    clusters = tmp / "clusters" / "scene0_clusters.json"
    run_cli("report", samples, "--clusters", clusters, "--out-dir", tmp / "reports")
    run_cli(
        "eval", samples, "--clusters", clusters,
        "--gt", tmp / "synth" / "scene0_gt.jsonl", "--out-dir", tmp / "eval",
    )
    return tmp


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("frobnicate", check=False).returncode == 1
        assert run_cli("cluster", check=False).returncode == 1

    def test_missing_file_is_two(self, tmp_path):
        r = run_cli("cluster", tmp_path / "nope.jsonl", "--out-dir", tmp_path / "o", check=False)
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("cluster", "--jobs", "0"),
            ("cluster", "--jobs", "-1"),
            ("cluster", "--split-threshold", "0"),
            ("calibrate", "--bins", "0"),
            ("calibrate", "--bins", "x"),
            ("calibrate", "--bins", "1001"),
            ("calibrate", "--bins", "100000000"),
        ],
    )
    def test_bad_count_is_usage_error(self, tmp_path, command, flag, value):
        path = tmp_path / "input.jsonl"
        path.write_text("")
        out = tmp_path / "o"
        r = run_cli(command, path, "--out-dir", out, flag, value, check=False)
        assert r.returncode == 1
        assert flag in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_background_threshold_out_of_range_is_two(self, pipeline_dirs, tmp_path, value):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        out = tmp_path / "o"
        r = run_cli("cluster", samples, "--out-dir", out, "--background-threshold", value,
                    check=False)
        assert r.returncode == 2
        assert "background threshold" in r.stderr
        assert not list(out.glob("*_clusters.json"))

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_mask_threshold_out_of_range_is_two(self, pipeline_dirs, tmp_path, command, value):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        gt = ["--gt", pipeline_dirs / "synth" / "scene0_gt.jsonl"] if command == "eval" else []
        out = tmp_path / "o"
        r = run_cli(command, samples, "--clusters", clusters, *gt, "--out-dir", out,
                    "--mask-threshold", value, check=False)
        assert r.returncode == 2
        assert "mask threshold must be in [0, 1]" in r.stderr
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_malformed_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        r = run_cli("cluster", bad, "--out-dir", tmp_path / "o", check=False)
        assert r.returncode == 2
        assert "line 1" in r.stderr

    def test_empty_detections_is_error(self, tmp_path):
        f = tmp_path / "empty.jsonl"
        f.write_text(
            json.dumps(
                {"image_id": "e", "height": 10, "width": 10, "n_repetitions": 1,
                 "num_classes": 1}
            )
            + "\n"
        )
        r = run_cli("cluster", f, "--out-dir", tmp_path / "o", check=False)
        assert r.returncode == 2
        assert "nothing to cluster" in r.stderr


def one_mask_file(path, height, width):
    """A samples file with one detection whose mask is one run of H * W pixels."""
    header = {"image_id": "big", "height": height, "width": width,
              "n_repetitions": 1, "num_classes": 1}
    det = {"repetition": 0, "bbox": [0, 0, 10, 10], "scores": [0.1, 0.9],
           "mask_runs": [height * width]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(det) + "\n")
    return path


def one_cluster_file(path):
    """The clusters file 'cluster' writes for one_mask_file."""
    doc = {"image_id": "big", "background_threshold": 0.45, "n_detections": 1,
           "labels": [0], "clusters": [{"cluster_id": 0, "size": 1, "split_refused": False}]}
    path.write_text(json.dumps(doc))
    return path


class TestHardExit:
    """`python -m dropuq` flushes its standard streams after main returns and
    ends with os._exit, skipping the interpreter's teardown. Each child here
    runs without PYTHONUNBUFFERED, so a line it prints is still buffered when
    main returns."""

    def test_every_report_line_arrives(self, pipeline_dirs, tmp_path, capsys):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        from dropuq.cli import main

        assert main(["report", str(samples), "--clusters", str(clusters),
                     "--out-dir", str(tmp_path / "in")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(json.loads(clusters.read_text())["clusters"]) == 2
        r = run_cli("report", samples, "--clusters", clusters, "--out-dir", tmp_path / "child",
                    buffered=True)
        assert r.stdout.splitlines() == lines

    def test_closed_pipe(self, pipeline_dirs, tmp_path):
        # As the interpreter's own exit reports a failed flush: exit code 120,
        # one "Exception ignored" note and no traceback.
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "dropuq", "report", str(samples), "--clusters",
                 str(clusters), "--out-dir", str(tmp_path / "r")],
                stdout=write, stderr=subprocess.PIPE, text=True, env=child_env(buffered=True),
            )
        finally:
            os.close(write)
        assert r.returncode == 120, r.stderr
        assert r.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert "BrokenPipeError" in r.stderr and "Traceback" not in r.stderr, r.stderr
        assert (tmp_path / "r" / "scene0_cluster_000_report.json").exists()

    def test_error_codes(self, tmp_path):
        r = run_cli("frobnicate", check=False, buffered=True)
        assert r.returncode == 1 and "invalid choice" in r.stderr
        r = run_cli("cluster", tmp_path / "nope.jsonl", "--out-dir", tmp_path / "o",
                    check=False, buffered=True)
        assert (r.returncode, r.stderr) == (
            2, f"dropuq: error: [Errno 2] No such file or directory: '{tmp_path / 'nope.jsonl'}'\n"
        )

    def test_no_atexit_handler_runs(self, scene_file, tmp_path):
        r = run_python(
            "import atexit, sys; from dropuq.cli import run; "
            "atexit.register(print, 'atexit handler ran'); "
            f"sys.argv[1:] = ['synth', {str(scene_file)!r}, '--out-dir', "
            f"{str(tmp_path / 'o')!r}]; run()",
            buffered=True,
        )
        assert (r.returncode, r.stdout) == (0, "scene0: 80 detections, 2 instances, "
                                               "40 repetitions\n"), r.stderr
        assert (tmp_path / "o" / "scene0_samples.jsonl").exists()

    def test_console_script_target(self):
        # The installed `dropuq` command calls this; Python 3.10 has no tomllib.
        text = (Path(SRC).parent / "pyproject.toml").read_text()
        module, name = re.search(
            r'^\[project\.scripts\]\ndropuq = "([\w.]+):(\w+)"$', text, re.MULTILINE
        ).groups()
        assert callable(getattr(importlib.import_module(module), name))


class TestHostileInput:
    def test_huge_header_is_two(self, tmp_path):
        # 50 000 x 50 000: mask statistics would need 18.6 GiB per array.
        samples = one_mask_file(tmp_path / "huge.jsonl", 50_000, 50_000)
        assert samples.stat().st_size < 200
        clusters = one_cluster_file(tmp_path / "big_clusters.json")
        for argv in (
            ("cluster", samples, "--out-dir", tmp_path / "c"),
            ("report", samples, "--clusters", clusters, "--out-dir", tmp_path / "r"),
        ):
            r = run_cli(*argv, check=False, address_space=3 << 30)
            assert r.returncode == 2, r.stderr
            assert f"exceeds the limit of {MAX_PIXELS} pixels" in r.stderr
        assert not list((tmp_path / "c").glob("*_clusters.json"))
        assert not list((tmp_path / "r").glob("*_report.json"))

    def test_out_of_memory_is_two(self, tmp_path):
        # At the limit the mask statistics need about 2 GiB; cap the child at 1 GiB.
        side = int(MAX_PIXELS ** 0.5)
        samples = one_mask_file(tmp_path / "edge.jsonl", side, side)
        run_cli("cluster", samples, "--out-dir", tmp_path / "c", address_space=1 << 30)
        clusters = tmp_path / "c" / "big_clusters.json"
        r = run_cli("report", samples, "--clusters", clusters, "--out-dir", tmp_path / "r",
                    check=False, address_space=1 << 30)
        assert r.returncode == 2, r.stderr
        assert "dropuq: error: out of memory" in r.stderr
        assert "Traceback" not in r.stderr

    def test_component_over_the_ward_cap_is_two(self, tmp_path, monkeypatch, capsys):
        from dropuq import ward
        from dropuq.cli import main

        monkeypatch.setattr(ward, "MAX_POINTS", 100)
        s, _, _ = generate(overlapping_scene(0, 3))
        samples = tmp_path / "scene_samples.jsonl"
        samples.write_text(serialize_sample_set(s))
        out = tmp_path / "c"
        assert main(["cluster", str(samples), "--out-dir", str(out), "--algorithm", "agg"]) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: samples file {samples}: Ward linkage on a component of 300 points "
            "exceeds the cap of 100; use --algorithm bgm, whose memory is linear\n"
        )
        assert not list(out.glob("*_clusters.json"))


@pytest.mark.parametrize("error, reason", [(MemoryError(), "allocation failed"),
                                           (MemoryError("no room"), "no room")])
def test_out_of_memory_message(tmp_path, monkeypatch, capsys, error, reason):
    from dropuq import cli

    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_synth", exhausted)
    assert cli.main(["synth", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"dropuq: error: out of memory ({reason})\n"


def scene_spec_file(path, height, width):
    """A scene spec of one ellipse instance, with the header size given."""
    doc = json.loads(scene_spec_to_json(separated_scene(0, 1, shape="ellipse")))
    doc["height"], doc["width"] = height, width
    path.write_text(json.dumps(doc))
    return path


class TestHostileSceneSpec:
    def test_huge_spec_is_two(self, tmp_path):
        # One ellipse on 50 000 x 50 000 pixels: rendering it takes 18.6 GiB.
        spec = scene_spec_file(tmp_path / "huge.json", 50_000, 50_000)
        r = run_cli("synth", spec, "--out-dir", tmp_path / "s", check=False,
                    address_space=3 << 30)
        assert r.returncode == 2, r.stderr
        assert f"50000 x 50000 pixels exceeds the limit of {MAX_PIXELS} pixels" in r.stderr
        assert not (tmp_path / "s").exists()

    def test_too_many_detections_is_two(self, tmp_path, capsys):
        # 20 000 000 repetitions of one instance: refused when the spec is
        # read, before any detection is drawn.
        from dropuq.cli import main

        doc = json.loads(scene_spec_to_json(separated_scene(0, 1, shape="ellipse")))
        doc["n_repetitions"] = 20_000_000
        spec = tmp_path / "many.json"
        spec.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = main(["synth", str(spec), "--out-dir", str(tmp_path / "s")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert (f"20000000 repetitions x 1 instances exceed the limit of {MAX_DETECTIONS} "
                "detections") in capsys.readouterr().err
        assert peak < 4 * 2**20
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("height, width", [(0, 100), (100, 0), (-3, 100)])
    def test_empty_spec_is_two(self, tmp_path, height, width):
        spec = scene_spec_file(tmp_path / "empty.json", height, width)
        r = run_cli("synth", spec, "--out-dir", tmp_path / "s", check=False)
        assert r.returncode == 2, r.stderr
        assert f"height and width must be >= 1, got {height} x {width}" in r.stderr
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("height", "1e400", "height must be a JSON integer, got inf"),
            ("height", "10.9", "height must be a JSON integer, got 10.9"),
            ("instances", "5", "instances must be a list, got 5"),
            ("box", "[1, 2]", "box needs 4 values, got 2"),
            ("box", f"[0, 0, 1{'0' * 400}, 5]", "box coordinates must be finite, got (0.0, 0.0, inf, 5.0)"),
            ("box_jitter_sigma", "Infinity", "box_jitter_sigma must be in [0, inf), got inf"),
            (None, "[1]", ": must be a JSON object, got list"),
            ("mask_nosie", "0.5", "unknown instance key 'mask_nosie'"),
            ("n_repetiton", "9", "unknown scene spec key 'n_repetiton'"),
            ("box", "[700, 700, 760, 790]", "spec.json: instances[0]: box (700.0, 700.0, 760.0, "
             "790.0) has no area inside the 640 x 640 image"),
        ],
        ids=["inf-height", "fractional-height", "scalar-instances", "short-box", "huge-box",
             "inf-jitter", "list-spec", "unknown-instance-key", "unknown-spec-key",
             "outside-box"],
    )
    def test_bad_spec_value_is_two(self, tmp_path, field, value, message):
        doc = json.loads(scene_spec_to_json(separated_scene(0, 1, shape="ellipse")))
        if field is None:
            doc = "VALUE"
        elif field in ("box", "box_jitter_sigma", "mask_nosie"):
            doc["instances"][0][field] = "VALUE"
        else:
            doc[field] = "VALUE"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc).replace('"VALUE"', value))
        r = run_cli("synth", spec, "--out-dir", tmp_path / "s", check=False)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "s").exists()

    def test_instance_across_the_edge_scores_its_clamped_box(self, tmp_path, capsys):
        # Detections are clamped into the image, so the ground-truth box must be too.
        from dropuq.cli import main

        spec = tmp_path / "edge.json"
        spec.write_text(scene_spec_to_json(SceneSpec(
            "edge", 100, 100, 1, 20, (InstanceSpec((90, 10, 130, 30), 1, box_jitter_sigma=0.5),)
        )))
        synth, clusters = tmp_path / "s", tmp_path / "c"
        assert main(["synth", str(spec), "--out-dir", str(synth)]) == 0
        samples = str(synth / "edge_samples.jsonl")
        assert main(["cluster", samples, "--out-dir", str(clusters)]) == 0
        capsys.readouterr()
        assert main(["eval", samples, "--clusters", str(clusters / "edge_clusters.json"),
                     "--gt", str(synth / "edge_gt.jsonl"), "--out-dir", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().out == "mAP@0.5 (box): 1.0000\nmAP@0.5 (mask): 1.0000\n"

    def test_spec_that_is_not_json_names_the_file(self, tmp_path, capsys):
        from dropuq.cli import main

        spec = tmp_path / "bad.json"
        spec.write_text("not json\n")
        assert main(["synth", str(spec), "--out-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: scene spec {spec}: invalid JSON "
            "(Expecting value: line 1 column 1 (char 0))\n"
        )
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d.pop("image_id"), "missing key 'image_id'"),
            (lambda d: d["instances"][0].pop("box"), "missing key 'box'"),
            (lambda d: d.update(bogus=1), "unknown scene spec key 'bogus'"),
            (lambda d: d.update(seed=-1), "seed must be >= 0, got -1"),
            (lambda d: d["instances"][0].update(box=[5, 5, 5, 9]),
             "box must have strictly positive area, got (5.0, 5.0, 5.0, 9.0)"),
        ],
        ids=["no-image-id", "no-box", "unknown-key", "negative-seed", "empty-box"],
    )
    def test_spec_error_names_the_file_and_key(self, tmp_path, capsys, edit, key):
        from dropuq.cli import main

        doc = json.loads(scene_spec_to_json(separated_scene(0, 1, shape="ellipse")))
        edit(doc)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", str(spec), "--out-dir", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dropuq: error: scene spec {spec}: {key}"), err
        assert not (tmp_path / "s").exists()


def run_python(code, buffered=False):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(buffered))


def test_fit_at_the_iteration_cap_warns_on_stderr(tmp_path, monkeypatch, capsys):
    # Two images whose whole-image fits give the same message: each is reported.
    from dropuq import bgm
    from dropuq.cli import main

    monkeypatch.setattr(bgm, "_MAX_ITERS", 2)
    paths = []
    for seed in (0, 1):
        s, _, _ = generate(overlapping_scene(seed, 10))
        paths.append(tmp_path / f"{s.image_id}_samples.jsonl")
        paths[-1].write_text(serialize_sample_set(s))
    assert main(["cluster", *map(str, paths), "--out-dir", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    for path in paths:
        assert (f"dropuq: warning: {path}: mixture fit on 1000 points did not converge "
                "within the cap of 2 iterations") in err
    assert len(list((tmp_path / "o").glob("*_clusters.json"))) == 2


class TestLazyScipy:
    def test_importing_cli_loads_no_scipy(self):
        r = run_python("import sys, dropuq.cli; print('scipy' in sys.modules)")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_cluster_without_fit_loads_no_scipy(self, tmp_path):
        # Five separated box-only instances: five components, none needs a fit.
        s, _, _ = generate(separated_scene(2, 5, sigma=3.0, n_repetitions=30))
        samples = tmp_path / "scene2_samples.jsonl"
        samples.write_text(serialize_sample_set(s))
        r = run_python(
            "import sys; from dropuq.cli import main; "
            f"code = main(['cluster', {str(samples)!r}, '--out-dir', {str(tmp_path / 'o')!r}]); "
            "print(code, 'scipy' in sys.modules)"
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "0 False"
        doc = json.loads((tmp_path / "o" / "scene2_clusters.json").read_text())
        assert [c["size"] for c in doc["clusters"]] == [30] * 5

    def test_calibrate_loads_no_scipy(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            serialize_calibration_records(generate_calibration_records(500, 2.0, 4, seed=3))
        )
        r = run_python(
            "import sys; from dropuq.cli import main; "
            f"code = main(['calibrate', {str(records)!r}, '--out-dir', {str(tmp_path / 'o')!r}]); "
            "print(code, 'scipy' in sys.modules)"
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "o" / "temperature.json").exists()


    def test_fit_loads_no_scipy_linalg(self):
        r = run_python(
            "import sys, numpy as np; from dropuq.bgm import fit_bgm; "
            "x = np.random.default_rng(0).normal(0, 5, (40, 4)); x[20:] += 50; "
            "s = fit_bgm(x, 4, seed=0); "
            "print(s.effective_components, 'scipy.special' in sys.modules, "
            "'scipy.linalg' in sys.modules)"
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "2 True False"


class TestModuleSets:
    """Each command loads only the modules it runs. The pipeline scene needs
    no fit, so bgm, ward and scipy stay unloaded, and with scipy numpy.ma;
    report and eval read the labels a cluster run wrote and load no
    clustering code."""

    def loaded(self, *argv):
        r = run_python(
            "import sys; from dropuq.cli import main; "
            f"code = main({list(map(str, argv))!r}); print(code, *sorted(sys.modules))"
        )
        assert r.returncode == 0, r.stderr
        code, *modules = r.stdout.splitlines()[-1].split()
        assert code == "0", r.stdout
        return set(modules)

    @pytest.mark.parametrize(
        "command, absent",
        [
            ("cluster", ["dropuq.report", "dropuq.figures", "dropuq.evaluation",
                         "dropuq.synth", "dropuq.calibration", "dropuq.bgm", "dropuq.ward",
                         "numpy.ma", "orjson"]),
            ("report", ["dropuq.clustering", "dropuq.synth", "dropuq.bgm", "dropuq.ward",
                        "numpy.ma", "orjson"]),
            ("eval", ["dropuq.clustering", "dropuq.synth", "dropuq.bgm", "dropuq.ward",
                      "numpy.ma", "orjson"]),
        ],
    )
    def test_scene_command(self, pipeline_dirs, tmp_path, command, absent):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        gt = pipeline_dirs / "synth" / "scene0_gt.jsonl"
        extra = {
            "cluster": [],
            "report": ["--clusters", clusters],
            "eval": ["--clusters", clusters, "--gt", gt],
        }[command]
        loaded = self.loaded(command, samples, *extra, "--out-dir", tmp_path / "o")
        assert sorted(loaded & set(absent)) == []

    def test_calibrate(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            serialize_calibration_records(generate_calibration_records(500, 2.0, 4, seed=3))
        )
        loaded = self.loaded("calibrate", records, "--out-dir", tmp_path / "o")
        assert sorted(loaded & {"dropuq.clustering", "dropuq.bgm", "dropuq.report"}) == []

    def test_synth(self, scene_file, tmp_path):
        # synth only writes files, so it needs neither the record decoder
        # nor the calibration module.
        loaded = self.loaded("synth", scene_file, "--out-dir", tmp_path / "o", "--seed", "5")
        assert sorted(loaded & {"dropuq.calibration", "orjson"}) == []


SAMPLE_HEADER = {
    "image_id": "img", "height": 10, "width": 10, "n_repetitions": 3, "num_classes": 2,
}
SAMPLE_DETECTION = {
    "repetition": 0, "bbox": [1, 2, 5, 6], "scores": [0.1, 0.6, 0.3], "mask_runs": [0, 50, 50],
}


class TestStrictValueTypes:
    """A value of the wrong JSON type exits 2 and names its line."""

    def check(self, r, source, lineno):
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"dropuq: error: {source}: line {lineno}: "), r.stderr

    def cluster(self, tmp_path, header, detection):
        path = tmp_path / "img_samples.jsonl"
        lines = [header, SAMPLE_DETECTION, None, detection]
        path.write_text("\n".join("" if d is None else json.dumps(d) for d in lines) + "\n")
        return run_cli("cluster", path, "--out-dir", tmp_path / "o", check=False)

    def samples_file(self, tmp_path):
        return f"samples file {tmp_path / 'img_samples.jsonl'}"

    def test_well_typed_file_clusters(self, tmp_path):
        r = self.cluster(tmp_path, SAMPLE_HEADER, SAMPLE_DETECTION)
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize(
        "key, value", [("height", 10.9), ("width", "10"), ("num_classes", True), ("image_id", 5)]
    )
    def test_bad_header_value(self, tmp_path, key, value):
        r = self.cluster(tmp_path, {**SAMPLE_HEADER, key: value}, SAMPLE_DETECTION)
        self.check(r, self.samples_file(tmp_path), 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("repetition", 1.7),
            ("repetition", True),
            ("bbox", [1, 2, "5", 6]),
            ("scores", [0.1, "0.9", 0.0]),
            ("mask_runs", [0, 50.9, 49.1]),
        ],
    )
    def test_bad_detection_value(self, tmp_path, key, value):
        r = self.cluster(tmp_path, SAMPLE_HEADER, {**SAMPLE_DETECTION, key: value})
        self.check(r, self.samples_file(tmp_path), 4)

    @pytest.mark.parametrize("class_id", [1.9, True, "1"])
    def test_bad_ground_truth_class(self, pipeline_dirs, tmp_path, class_id):
        good = {"image_id": "scene0", "bbox": [10, 10, 50, 50], "class_id": 1}
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, "class_id": class_id}) + "\n")
        r = run_cli(
            "eval", pipeline_dirs / "synth" / "scene0_samples.jsonl",
            "--clusters", pipeline_dirs / "clusters" / "scene0_clusters.json",
            "--gt", gt, "--out-dir", tmp_path / "eval", check=False,
        )
        self.check(r, f"ground-truth file {gt}", 3)
        assert not (tmp_path / "eval" / "eval.csv").exists()


def bad_samples_file(path):
    """A samples file whose line 2 holds a repetition out of range."""
    bad = {**SAMPLE_DETECTION, "repetition": 7}
    path.write_text(json.dumps(SAMPLE_HEADER) + "\n" + json.dumps(bad) + "\n")
    return path


class TestErrorsNameTheirFile:
    """A data error in an input file starts with the kind and path of that file."""

    def test_second_of_two_samples_files(self, pipeline_dirs, tmp_path, capsys):
        from dropuq.cli import main

        good = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        bad = bad_samples_file(tmp_path / "bad_samples.jsonl")
        out = tmp_path / "c"
        assert main(["cluster", str(good), str(bad), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: samples file {bad}: line 2: repetition 7 out of range [0, 3)\n"
        )
        assert not list(out.glob("*_clusters.json"))

    def test_ward_cap_names_the_second_file(self, tmp_path, monkeypatch, capsys):
        from dropuq import ward
        from dropuq.cli import main

        monkeypatch.setattr(ward, "MAX_POINTS", 100)
        small = tmp_path / "small_samples.jsonl"
        small.write_text(serialize_sample_set(generate(separated_scene(0, 2))[0]))
        crowded = tmp_path / "scene_samples.jsonl"
        crowded.write_text(serialize_sample_set(generate(overlapping_scene(0, 3))[0]))
        argv = ["cluster", str(small), str(crowded), "--out-dir", str(tmp_path / "c")]
        assert main(argv + ["--algorithm", "agg"]) == 2
        assert capsys.readouterr().err.startswith(
            f"dropuq: error: samples file {crowded}: Ward linkage on a component of 300 points"
        )

    def test_eval_names_the_ground_truth_file(self, pipeline_dirs, tmp_path, capsys):
        from dropuq.cli import main

        good = {"image_id": "scene0", "bbox": [10, 10, 50, 50], "class_id": 1}
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(good) + "\n" + json.dumps({**good, "class_id": 0}) + "\n")
        argv = ["eval", str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
                "--clusters", str(pipeline_dirs / "clusters" / "scene0_clusters.json"),
                "--gt", str(gt), "--out-dir", str(tmp_path / "eval")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: ground-truth file {gt}: line 2: "
            "class_id must be a foreground class, got 0\n"
        )

    def test_eval_names_the_samples_file(self, pipeline_dirs, tmp_path, capsys):
        from dropuq.cli import main

        bad = bad_samples_file(tmp_path / "bad_samples.jsonl")
        argv = ["eval", str(bad),
                "--clusters", str(pipeline_dirs / "clusters" / "scene0_clusters.json"),
                "--gt", str(pipeline_dirs / "synth" / "scene0_gt.jsonl"),
                "--out-dir", str(tmp_path / "eval")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"dropuq: error: samples file {bad}: line 2: ")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("cluster", json.dumps(SAMPLE_HEADER) + "\n",
             "samples file {path}: nothing to cluster after background filtering"),
            ("calibrate", "\n", "records file {path}: no calibration records"),
        ],
    )
    def test_empty_input_is_named_once(self, tmp_path, capsys, command, text, message):
        from dropuq.cli import main

        path = tmp_path / "input.jsonl"
        path.write_text(text)
        assert main([command, str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"dropuq: error: {message.format(path=path)}\n"


class TestClustersFileTypes:
    """A clusters-file value of the wrong JSON type, or a clusters list that
    does not match the labels, exits 2 and names its field."""

    @pytest.mark.parametrize("command", ["report", "eval"])
    @pytest.mark.parametrize(
        "field, bad",
        [
            pytest.param("background_threshold", lambda d: {**d, "background_threshold": "x"},
                         id="threshold-string"),
            pytest.param("n_detections", lambda d: {**d, "n_detections": str(d["n_detections"])},
                         id="count-string"),
            pytest.param("labels", lambda d: {**d, "labels": [0.5] + d["labels"][1:]},
                         id="label-real"),
            pytest.param("labels", lambda d: {**d, "labels": [True] * len(d["labels"])},
                         id="label-bool"),
            pytest.param("clusters", lambda d: {**d, "clusters": 5}, id="clusters-int"),
            pytest.param("split_refused",
                         lambda d: {**d, "clusters": [{**c, "split_refused": 0}
                                                      for c in d["clusters"]]},
                         id="refused-int"),
            pytest.param("must be a JSON object", lambda d: [d], id="top-level-list"),
            pytest.param("labels",
                         lambda d: {**d, "labels": [5 + 2 * v for v in d["labels"]],
                                    "clusters": [{**c, "cluster_id": 5 + 2 * c["cluster_id"],
                                                  "split_refused": c["cluster_id"] == 0}
                                                 for c in d["clusters"]]},
                         id="relabeled"),
            pytest.param("labels", lambda d: {**d, "clusters": []}, id="empty-list"),
            pytest.param("cluster_id", lambda d: {**d, "clusters": d["clusters"] * 2},
                         id="duplicated-list"),
            pytest.param("size",
                         lambda d: {**d, "clusters": [{**c, "size": c["size"] + 1}
                                                      for c in d["clusters"]]},
                         id="wrong-size"),
            # The sizes still match the labels; only their count is wrong.
            pytest.param("labels must hold one label per detection",
                         lambda d: {**d, "labels": d["labels"] + [0],
                                    "clusters": [{**c, "size": c["size"] + (c["cluster_id"] == 0)}
                                                 for c in d["clusters"]]},
                         id="one-too-many"),
            pytest.param("labels must hold one label per detection",
                         lambda d: {**d, "labels": d["labels"][:-1],
                                    "clusters": [{**c, "size": c["size"]
                                                  - (c["cluster_id"] == d["labels"][-1])}
                                                 for c in d["clusters"]]},
                         id="one-too-few"),
        ],
    )
    def test_bad_value_is_two(self, pipeline_dirs, tmp_path, command, field, bad):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        clusters = tmp_path / "scene0_clusters.json"
        clusters.write_text(json.dumps(bad(doc)))
        out = tmp_path / "o"
        extra = ["--gt", pipeline_dirs / "synth" / "scene0_gt.jsonl"] if command == "eval" else []
        r = run_cli(command, samples, "--clusters", clusters, *extra, "--out-dir", out,
                    check=False)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"dropuq: error: clusters file {clusters}: "), r.stderr
        assert field in r.stderr
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_file_that_is_not_json_names_the_file(self, pipeline_dirs, tmp_path, capsys,
                                                   command):
        from dropuq.cli import main

        clusters = tmp_path / "bad.json"
        clusters.write_text("not json\n")
        out = tmp_path / "o"
        gt = pipeline_dirs / "synth" / "scene0_gt.jsonl"
        extra = ["--gt", str(gt)] if command == "eval" else []
        argv = [command, str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
                "--clusters", str(clusters), *extra, "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: clusters file {clusters}: invalid JSON "
            "(Expecting value: line 1 column 1 (char 0))\n"
        )
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["report", "eval"])
    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d.pop("labels"), "labels"),
            (lambda d: d["clusters"][-1].pop("split_refused"), "split_refused"),
        ],
        ids=["no-labels", "no-split-refused"],
    )
    def test_missing_key_names_the_file_and_key(self, pipeline_dirs, tmp_path, capsys,
                                                 command, edit, key):
        from dropuq.cli import main

        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        edit(doc)
        clusters = tmp_path / "scene0_clusters.json"
        clusters.write_text(json.dumps(doc))
        out = tmp_path / "o"
        gt = pipeline_dirs / "synth" / "scene0_gt.jsonl"
        extra = ["--gt", str(gt)] if command == "eval" else []
        argv = [command, str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
                "--clusters", str(clusters), *extra, "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: clusters file {clusters}: missing key {key!r}\n"
        )
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["report", "eval"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: {**d, "background_threshold": 5},
             lambda d: "background threshold must be in [0, 1], got 5.0"),
            (lambda d: {**d, "image_id": "other"},
             lambda d: "image_id is 'other' but the samples are of image 'scene0'"),
            # Labels and sizes agree with the count, which the samples do not give.
            (lambda d: {**d, "n_detections": d["n_detections"] + 1, "labels": d["labels"] + [0],
                        "clusters": [{**c, "size": c["size"] + (c["cluster_id"] == 0)}
                                     for c in d["clusters"]]},
             lambda d: f"n_detections is {d['n_detections'] + 1} but the samples give "
                       f"{d['n_detections']} after background filtering"),
        ],
        ids=["threshold-out-of-range", "other-image", "one-detection-more"],
    )
    def test_mismatch_with_the_samples_names_the_file(self, pipeline_dirs, tmp_path, capsys,
                                                      command, edit, message):
        from dropuq.cli import main

        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        clusters = tmp_path / "scene0_clusters.json"
        clusters.write_text(json.dumps(edit(doc)))
        out = tmp_path / "o"
        gt = pipeline_dirs / "synth" / "scene0_gt.jsonl"
        extra = ["--gt", str(gt)] if command == "eval" else []
        argv = [command, str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
                "--clusters", str(clusters), *extra, "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: clusters file {clusters}: {message(doc)}\n"
        )
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


class TestPipeline:
    def test_cluster_summary(self, pipeline_dirs):
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        assert len(doc["clusters"]) == 2
        assert len(doc["labels"]) == doc["n_detections"]

    def test_split_threshold_recorded(self, pipeline_dirs, tmp_path):
        # the scene has 40 repetitions: the default is 1.5 x 40
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        assert doc["split_threshold"] == 60
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        run_cli("cluster", samples, "--out-dir", tmp_path, "--split-threshold", "500")
        assert json.loads((tmp_path / "scene0_clusters.json").read_text())["split_threshold"] == 500

    def test_report_files_exist(self, pipeline_dirs):
        reports = pipeline_dirs / "reports"
        for cid in (0, 1):
            stem = f"scene0_cluster_{cid:03d}"
            for suffix in ("_report.json", "_box.svg", "_classes.svg", "_kde.svg",
                           "_mask_mean.pgm", "_mask_std.pgm"):
                assert (reports / f"{stem}{suffix}").exists(), suffix

    def test_eval_perfect_scene(self, pipeline_dirs):
        lines = (pipeline_dirs / "eval" / "eval.csv").read_text().strip().split("\n")
        summary = {ln.split(",")[0]: ln.split(",")[2] for ln in lines if ",mAP," in ln}
        assert float(summary["box"]) == 1.0
        assert float(summary["mask"]) == 1.0

    def test_split_refused_read_back(self, pipeline_dirs, tmp_path):
        from dropuq.cli import main

        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        doc["clusters"][1]["split_refused"] = True
        clusters = tmp_path / "scene0_clusters.json"
        clusters.write_text(json.dumps(doc))
        assert main(["report", str(samples), "--clusters", str(clusters),
                     "--out-dir", str(tmp_path / "r")]) == 0
        refused = [
            json.loads((tmp_path / "r" / f"scene0_cluster_{i:03d}_report.json").read_text())
            ["split_refused"]
            for i in (0, 1)
        ]
        assert refused == [False, True]

    def test_eval_scores_only_the_samples_image(self, pipeline_dirs, tmp_path):
        from dropuq.cli import main

        gt = tmp_path / "gt.jsonl"
        gt.write_text((pipeline_dirs / "synth" / "scene0_gt.jsonl").read_text()
                      + json.dumps({"image_id": "q", "bbox": [0, 0, 10, 10], "class_id": 1})
                      + "\n")
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        assert main(["eval", str(samples), "--clusters", str(clusters), "--gt", str(gt),
                     "--mode", "box", "--out-dir", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "eval.csv").read_text().splitlines()[-1] == "box,mAP,1.0"

    @pytest.mark.parametrize("mode", ["box", "mask"])
    def test_eval_checks_only_the_samples_image_masks(self, pipeline_dirs, tmp_path, mode):
        # One ground-truth file for two images of different sizes: each
        # image's masks are checked against its own dims only.
        from dropuq.cli import main

        other = {"image_id": "other", "bbox": [0, 1, 5, 2], "class_id": 1,
                 "mask_runs": [10, 5, 85]}  # row 1, columns 0-4 of a 10 x 10 image
        gt = tmp_path / "gt.jsonl"
        gt.write_text((pipeline_dirs / "synth" / "scene0_gt.jsonl").read_text()
                      + json.dumps(other) + "\n")
        samples = tmp_path / "other_samples.jsonl"
        header = {"image_id": "other", "height": 10, "width": 10, "n_repetitions": 2,
                  "num_classes": 2}
        detections = [{"repetition": r, "bbox": other["bbox"], "scores": [0.05, 0.9, 0.05],
                       "mask_runs": other["mask_runs"]} for r in (0, 1)]
        samples.write_text("\n".join(map(json.dumps, [header, *detections])) + "\n")
        assert main(["cluster", str(samples), "--out-dir", str(tmp_path / "c")]) == 0
        runs = [
            (pipeline_dirs / "synth" / "scene0_samples.jsonl",
             pipeline_dirs / "clusters" / "scene0_clusters.json"),
            (samples, tmp_path / "c" / "other_clusters.json"),
        ]
        for i, (image_samples, clusters) in enumerate(runs):
            out = tmp_path / f"e{i}"
            assert main(["eval", str(image_samples), "--clusters", str(clusters),
                         "--gt", str(gt), "--mode", mode, "--out-dir", str(out)]) == 0
            assert (out / "eval.csv").read_text().splitlines()[-1] == f"{mode},mAP,1.0"

    @pytest.mark.parametrize("threshold, mask_ap", [("0.5", "1.0"), ("0.0", "0.0")])
    def test_eval_builds_no_report(self, pipeline_dirs, tmp_path, monkeypatch, threshold, mask_ap):
        # eval needs the mean box, the class scores and the consensus mask,
        # not the IoU samples, densities or reports; eval.csv is unchanged.
        from dropuq import report
        from dropuq.cli import main

        def unused(*args, **kwargs):
            raise AssertionError("eval computed a report statistic it does not use")

        for name in ("build_report", "kde", "iou_to_mean"):
            monkeypatch.setattr(report, name, unused)
        out = tmp_path / "eval"
        code = main([
            "eval", str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
            "--clusters", str(pipeline_dirs / "clusters" / "scene0_clusters.json"),
            "--gt", str(pipeline_dirs / "synth" / "scene0_gt.jsonl"),
            "--out-dir", str(out), "--mask-threshold", threshold,
        ])
        assert code == 0
        assert (out / "eval.csv").read_text() == (
            "mode,class_id,ap\nbox,1,1.0\nbox,2,1.0\nbox,mAP,1.0\n"
            f"mask,1,{mask_ap}\nmask,2,{mask_ap}\nmask,mAP,{mask_ap}\n"
        )

    @pytest.mark.parametrize("mode, calls", [("box", 0), ("mask", 2), ("both", 2)])
    def test_eval_builds_consensus_only_for_masks(self, pipeline_dirs, tmp_path, monkeypatch,
                                                  mode, calls):
        # eval --mode box reads no mask, so no consensus is built; eval.csv
        # holds the same rows as the eval of both modes.
        from dropuq import report
        from dropuq.cli import main

        counted = []
        original = report.mask_stats

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(report, "mask_stats", counting)
        out = tmp_path / "eval"
        code = main([
            "eval", str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
            "--clusters", str(pipeline_dirs / "clusters" / "scene0_clusters.json"),
            "--gt", str(pipeline_dirs / "synth" / "scene0_gt.jsonl"),
            "--out-dir", str(out), "--mode", mode,
        ])
        assert code == 0
        assert len(counted) == calls
        both = (pipeline_dirs / "eval" / "eval.csv").read_text().splitlines()
        rows = [both[0]] + [r for r in both[1:] if mode in ("both", r.split(",")[0])]
        assert (out / "eval.csv").read_text().splitlines() == rows

    def test_eval_box_mode_checks_mask_threshold(self, pipeline_dirs, tmp_path, capsys):
        from dropuq.cli import main

        code = main([
            "eval", str(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
            "--clusters", str(pipeline_dirs / "clusters" / "scene0_clusters.json"),
            "--gt", str(pipeline_dirs / "synth" / "scene0_gt.jsonl"),
            "--out-dir", str(tmp_path / "eval"), "--mode", "box", "--mask-threshold", "1.5",
        ])
        assert code == 2
        assert "mask threshold must be in [0, 1], got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0.5", "0.0", "1.0"])
    def test_mask_layer_matches_reference(self, pipeline_dirs, tmp_path, monkeypatch,
                                          threshold):
        # The report and eval trees are byte-identical to those made with the
        # full-image mask statistics and pairwise IoU kept in the tests.
        from _reference import reference_iou_to_mean, reference_mask_stats
        from dropuq import report
        from dropuq.cli import main

        samples = str(pipeline_dirs / "synth" / "scene0_samples.jsonl")
        clusters = str(pipeline_dirs / "clusters" / "scene0_clusters.json")
        gt = str(pipeline_dirs / "synth" / "scene0_gt.jsonl")

        def trees(root):
            for argv in (
                ["report", samples, "--clusters", clusters, "--out-dir", str(root / "report")],
                ["eval", samples, "--clusters", clusters, "--gt", gt,
                 "--out-dir", str(root / "eval")],
            ):
                assert main([*argv, "--mask-threshold", threshold]) == 0
            return {k: v for k, v in snapshot(root).items() if "manifest" not in k}

        array = trees(tmp_path / "array")
        monkeypatch.setattr(report, "mask_stats", reference_mask_stats)
        monkeypatch.setattr(report, "iou_to_mean", reference_iou_to_mean)
        reference = trees(tmp_path / "reference")
        assert any(name.endswith(".pgm") for name in array)
        assert array == reference

    def test_manifests_written(self, pipeline_dirs):
        for sub in ("synth", "clusters", "reports", "eval"):
            doc = json.loads((pipeline_dirs / sub / "manifest.json").read_text())
            assert doc["tool"] == "dropuq"
            assert doc["command"] in ("synth", "cluster", "report", "eval")

    def test_manifest_records_every_option(self, scene_file, tmp_path):
        from dropuq.cli import main

        records = tmp_path / "records.jsonl"
        records.write_text(
            serialize_calibration_records(generate_calibration_records(200, 2.0, 3, seed=1))
        )
        samples = str(tmp_path / "synth" / "scene0_samples.jsonl")
        clusters = str(tmp_path / "cluster" / "scene0_clusters.json")
        gt = str(tmp_path / "synth" / "scene0_gt.jsonl")
        # Non-default values, so that each one is seen to come from the command line.
        runs = {
            "synth": ([str(scene_file)], ["--seed", "3"]),
            "cluster": ([samples], ["--seed", "4", "--jobs", "2", "--algorithm", "agg",
                                    "--split-threshold", "70", "--background-threshold", "0.4"]),
            "report": ([samples, "--clusters", clusters], ["--mask-threshold", "0.6"]),
            "calibrate": ([str(records)], ["--bins", "7"]),
            "eval": ([samples, "--clusters", clusters, "--gt", gt],
                     ["--mode", "box", "--mask-threshold", "0.6"]),
        }
        files = {"synth": ["spec"], "cluster": ["samples"], "report": ["samples", "clusters"],
                 "calibrate": ["records"], "eval": ["samples", "clusters", "gt"]}
        for command, (inputs, options) in runs.items():
            out = tmp_path / command
            argv = [command, *inputs, "--out-dir", str(out) + "/", *options]
            assert main(argv) == 0, command
            parsed = vars(_parser().parse_args(argv))
            names = [a[0].lstrip("-").replace("-", "_") for a in EXPECTED_ARGUMENTS[command]]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest == {
                "tool": "dropuq",
                "version": dropuq.__version__,
                "command": command,
                "inputs": [p for p in inputs if not p.startswith("--")],
                "out_dir": str(out),
                "config": {n: parsed[n] for n in names if n not in files[command] + ["out_dir"]},
            }, command

    def test_manifest_survives_data_error(self, pipeline_dirs, tmp_path):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = tmp_path / "wrong.json"
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        doc["n_detections"] += 1
        clusters.write_text(json.dumps(doc))
        out = tmp_path / "out"
        r = run_cli("report", samples, "--clusters", clusters, "--out-dir", out, check=False)
        assert r.returncode == 2
        assert (out / "manifest.json").exists()

    def test_kde_curve_matches_library(self, pipeline_dirs):
        from dropuq.ingest import filter_background, read_sample_set
        from dropuq.model import label_groups
        from dropuq.report import build_report

        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        s = filter_background(
            read_sample_set(pipeline_dirs / "synth" / "scene0_samples.jsonl"),
            doc["background_threshold"],
        )
        rep = build_report(s.take(label_groups(doc["labels"])[0]))
        written = json.loads(
            (pipeline_dirs / "reports" / "scene0_cluster_000_report.json").read_text()
        )
        assert written["kde"]["box"]["grid"] == list(rep.box_kde.grid)
        assert written["kde"]["box"]["density"] == list(rep.box_kde.density)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, scene_file, tmp_path):
        def chain(root: Path):
            run_cli("synth", scene_file, "--out-dir", root / "synth", "--seed", "9")
            samples = root / "synth" / "scene0_samples.jsonl"
            run_cli("cluster", samples, "--out-dir", root / "clusters", "--seed", "9")
            run_cli(
                "report", samples,
                "--clusters", root / "clusters" / "scene0_clusters.json",
                "--out-dir", root / "reports",
            )
            run_cli(
                "eval", samples,
                "--clusters", root / "clusters" / "scene0_clusters.json",
                "--gt", root / "synth" / "scene0_gt.jsonl",
                "--out-dir", root / "eval",
            )

        root = tmp_path / "run"
        chain(root)
        first = snapshot(root)
        shutil.rmtree(root)
        chain(root)
        assert snapshot(root) == first

    # SHA-256 of the tree test_golden_tree writes, manifest.json aside. A
    # change that moves any output byte of synth, cluster, report or eval
    # on this scene changes it.
    GOLDEN_TREE = "a228a6a551f20e1737e00d719248b6114018b8113310d9e3f9436a616286d231"

    def test_golden_tree(self, tmp_path):
        # 3 separated ellipse-mask instances x 20 repetitions; a split
        # threshold of 12 splits every instance and refuses one part.
        from dropuq.cli import main

        spec = separated_scene(3, 3, sigma=2.0, n_repetitions=20, shape="ellipse",
                               class_confusion=0.1, mask_noise=0.1, height=160, width=440,
                               columns=3)
        scene = tmp_path / "scene.json"
        scene.write_text(scene_spec_to_json(spec))
        root = tmp_path / "tree"
        samples = str(root / "synth" / "scene3_samples.jsonl")
        gt = str(root / "synth" / "scene3_gt.jsonl")
        clusters = str(root / "bgm" / "scene3_clusters.json")
        for argv in (
            ["synth", str(scene), "--out-dir", str(root / "synth")],
            ["cluster", samples, "--out-dir", str(root / "bgm"), "--seed", "2",
             "--split-threshold", "12"],
            ["cluster", samples, "--out-dir", str(root / "agg"), "--seed", "2",
             "--algorithm", "agg", "--split-threshold", "12"],
            ["report", samples, "--clusters", clusters, "--out-dir", str(root / "report")],
            ["eval", samples, "--clusters", clusters, "--gt", gt, "--mode", "both",
             "--out-dir", str(root / "eval")],
        ):
            assert main(argv) == 0, argv[0]
        doc = json.loads(Path(clusters).read_text())
        assert len(doc["clusters"]) > 3
        assert any(c["split_refused"] for c in doc["clusters"])
        assert tree_digest(root) == (self.GOLDEN_TREE, 54)

    # The same digest over the tree of test_golden_mixed_tree, whose masks
    # are boxes, ellipses and none.
    GOLDEN_MIXED_TREE = "7e7692f6d84eb79d04f28515a0045020c5d02fc1f8a6bfd9746311dd249808b3"

    def test_golden_mixed_tree(self, tmp_path):
        # Each instance keeps one cluster, and a split threshold of 30 makes
        # BGM try and refuse a split of each one.
        from dropuq.cli import main

        scene = tmp_path / "scene.json"
        scene.write_text(scene_spec_to_json(mixed_shape_scene()))
        root = tmp_path / "tree"
        samples = str(root / "synth" / "mixed9_samples.jsonl")
        gt = str(root / "synth" / "mixed9_gt.jsonl")
        clusters = str(root / "bgm" / "mixed9_clusters.json")
        for argv in (
            ["synth", str(scene), "--out-dir", str(root / "synth")],
            ["cluster", samples, "--out-dir", str(root / "bgm"), "--seed", "3",
             "--split-threshold", "30"],
            ["cluster", samples, "--out-dir", str(root / "agg"), "--seed", "3",
             "--algorithm", "agg"],
            ["report", samples, "--clusters", clusters, "--out-dir", str(root / "report_05")],
            ["report", samples, "--clusters", clusters, "--out-dir", str(root / "report_0"),
             "--mask-threshold", "0"],
            ["eval", samples, "--clusters", clusters, "--gt", gt, "--mode", "both",
             "--out-dir", str(root / "eval_both")],
            ["eval", samples, "--clusters", clusters, "--gt", gt, "--mode", "mask",
             "--out-dir", str(root / "eval_mask")],
        ):
            assert main(argv) == 0, argv[0]
        doc = json.loads(Path(clusters).read_text())
        assert len(doc["clusters"]) == 6
        assert all(c["split_refused"] for c in doc["clusters"])
        assert tree_digest(root) == (self.GOLDEN_MIXED_TREE, 87)

    def test_algorithms_differ_in_flag_only(self, pipeline_dirs, tmp_path):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        run_cli("cluster", samples, "--out-dir", tmp_path / "agg", "--seed", "5",
                "--algorithm", "agg")
        doc = json.loads((tmp_path / "agg" / "scene0_clusters.json").read_text())
        assert doc["algorithm"] == "agg"
        assert len(doc["clusters"]) == 2

    def test_parallel_jobs_match_sequential(self, pipeline_dirs, tmp_path):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        # same image under two ids, clustered sequentially and in parallel
        text = samples.read_text().splitlines()
        header = json.loads(text[0])
        files = []
        for name in ("imga", "imgb"):
            header["image_id"] = name
            p = tmp_path / f"{name}.jsonl"
            p.write_text("\n".join([json.dumps(header)] + text[1:]) + "\n")
            files.append(p)
        run_cli("cluster", *files, "--out-dir", tmp_path / "seq", "--seed", "5")
        run_cli("cluster", *files, "--out-dir", tmp_path / "par", "--seed", "5",
                "--jobs", "2")
        for name in ("imga", "imgb"):
            seq = (tmp_path / "seq" / f"{name}_clusters.json").read_bytes()
            par = (tmp_path / "par" / f"{name}_clusters.json").read_bytes()
            assert seq == par

    @pytest.mark.parametrize("ids", [("scene0", "scene0"), ("a/b", "a_b")])
    def test_clusters_file_collision_is_error(self, pipeline_dirs, tmp_path, ids):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        text = samples.read_text().splitlines()
        header = json.loads(text[0])
        files = []
        for image_id, name in zip(ids, ("a.jsonl", "a_copy.jsonl")):
            header["image_id"] = image_id
            p = tmp_path / name
            p.write_text("\n".join([json.dumps(header)] + text[1:]) + "\n")
            files.append(p)
        out = tmp_path / "out"
        r = run_cli("cluster", *files, "--out-dir", out, "--jobs", "2", check=False)
        assert r.returncode == 2
        assert str(files[0]) in r.stderr and str(files[1]) in r.stderr
        assert not list(out.glob("*_clusters.json"))

    def test_cluster_has_no_mask_threshold(self, pipeline_dirs, tmp_path):
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        r = run_cli("cluster", samples, "--out-dir", tmp_path / "o",
                    "--mask-threshold", "0.9", check=False)
        assert r.returncode == 1
        doc = json.loads((pipeline_dirs / "clusters" / "scene0_clusters.json").read_text())
        assert "mask_threshold" not in doc

    def test_zero_mask_cluster_report(self, tmp_path):
        spec = separated_scene(4, 1, sigma=1.5, n_repetitions=20, shape="none",
                               height=120, width=160)
        scene = tmp_path / "scene.json"
        scene.write_text(scene_spec_to_json(spec))
        run_cli("synth", scene, "--out-dir", tmp_path / "s")
        samples = tmp_path / "s" / "scene4_samples.jsonl"
        run_cli("cluster", samples, "--out-dir", tmp_path / "c", "--seed", "1")
        r = run_cli("report", samples, "--clusters", tmp_path / "c" / "scene4_clusters.json",
                    "--out-dir", tmp_path / "r")
        assert "zero_mask" in r.stdout
        doc = json.loads((tmp_path / "r" / "scene4_cluster_000_report.json").read_text())
        assert doc["mask"]["zero_mask"] is True
        assert not list((tmp_path / "r").glob("*.pgm"))

    def test_version_flag(self):
        r = run_cli("--version")
        assert r.stdout.startswith("dropuq ")


class TestCalibrate:
    def test_recovers_temperature_and_improves_mce(self, tmp_path):
        records = generate_calibration_records(4000, 2.0, 5, seed=11)
        path = tmp_path / "records.jsonl"
        path.write_text(serialize_calibration_records(records))
        r = run_cli("calibrate", path, "--out-dir", tmp_path / "cal")
        result = json.loads((tmp_path / "cal" / "temperature.json").read_text())
        assert abs(result["temperature"] - 2.0) / 2.0 < 0.05
        assert result["mce_after"] <= result["mce_before"]
        assert result["ace_after"] <= result["ace_before"]
        assert "temperature:" in r.stdout
        for name in ("reliability_before.csv", "reliability_after.csv",
                     "reliability_before.svg", "reliability_after.svg"):
            assert (tmp_path / "cal" / name).exists()

    def test_bins_at_the_bound(self, tmp_path):
        from dropuq.cli import MAX_BINS

        path = tmp_path / "records.jsonl"
        records = generate_calibration_records(300, 2.0, 3, seed=4)
        path.write_text(serialize_calibration_records(records))
        run_cli("calibrate", path, "--out-dir", tmp_path / "cal", "--bins", str(MAX_BINS))
        csv = (tmp_path / "cal" / "reliability_after.csv").read_text().splitlines()
        assert MAX_BINS == 1000 and len(csv) == 1 + MAX_BINS

    def test_already_calibrated_note(self, tmp_path):
        records = generate_calibration_records(4000, 1.0, 5, seed=12)
        path = tmp_path / "records.jsonl"
        path.write_text(serialize_calibration_records(records))
        r = run_cli("calibrate", path, "--out-dir", tmp_path / "cal")
        assert "already calibrated" in r.stdout

    def test_mixed_logit_counts_name_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"logits": [1, 2], "true_class": 1}\n{"logits": [1, 2, 3], "true_class": 1}\n'
        )
        r = run_cli("calibrate", path, "--out-dir", tmp_path / "cal", check=False)
        assert r.returncode == 2
        assert "line 2: 3 logits, but line 1 has 2" in r.stderr

    @pytest.mark.parametrize(
        "bad",
        [
            '{"logits": [0.0, 1.0], "true_class": 1.7}',
            '{"logits": [0.0, 1.0], "true_class": "1"}',
            '{"logits": [0.0, 1.0], "true_class": true}',
            '{"logits": [0.0, "0.5"], "true_class": 1}',
            '{"logits": [0.0, NaN], "true_class": 1}',
            '{"logits": [0.0, 1.0], "true_class": 2}',
            '{"logits": [0.0, true], "true_class": 1}',
        ],
    )
    def test_bad_value_names_line(self, tmp_path, bad):
        path = tmp_path / "records.jsonl"
        path.write_text('{"logits": [1, 2], "true_class": 1}\n\n' + bad + "\n")
        r = run_cli("calibrate", path, "--out-dir", tmp_path / "cal", check=False)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"dropuq: error: records file {path}: line 3: "), r.stderr
        assert not (tmp_path / "cal" / "temperature.json").exists()

    def test_empty_records_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        assert run_cli("calibrate", path, "--out-dir", tmp_path / "cal", check=False).returncode == 2


class TestLoneSurrogateId:
    """json decodes a lone surrogate, but no seed, file name or message can
    hold one: each command rejects it as a data error and writes nothing."""

    MESSAGE = r"image_id must be Unicode text, got 'masks\udfff'"

    @pytest.mark.parametrize("piped", [False, True], ids=["path", "pipe"])
    def test_cluster(self, tmp_path, piped):
        lines = serialize_sample_set(
            generate(separated_scene(0, 2, n_repetitions=10))[0]
        ).splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "image_id": "masks\udfff"})
        text = "\n".join(lines) + "\n"
        path = tmp_path / "samples.jsonl"
        path.write_text(text)
        source = "/dev/stdin" if piped else path
        r = run_cli("cluster", source, "--out-dir", tmp_path / "out", check=False,
                    input=text if piped else None)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"dropuq: error: samples file {source}: line 1: {self.MESSAGE}\n"
        )
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("seed", [None, "3"])
    def test_synth(self, tmp_path, seed):
        spec = tmp_path / "scene.json"
        spec.write_text(scene_spec_to_json(replace(separated_scene(0, 2), image_id="masks\udfff")))
        r = run_cli("synth", spec, "--out-dir", tmp_path / "out",
                    *(() if seed is None else ("--seed", seed)), check=False)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"dropuq: error: scene spec {spec}: {self.MESSAGE}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_eval(self, pipeline_dirs, tmp_path):
        gt = tmp_path / "gt.jsonl"
        gt.write_text((pipeline_dirs / "synth" / "scene0_gt.jsonl").read_text() + json.dumps(
            {"image_id": "masks\udfff", "bbox": [0, 0, 10, 10], "class_id": 1}
        ) + "\n")
        line = len(gt.read_text().splitlines())
        r = run_cli("eval", pipeline_dirs / "synth" / "scene0_samples.jsonl",
                    "--clusters", pipeline_dirs / "clusters" / "scene0_clusters.json",
                    "--gt", gt, "--out-dir", tmp_path / "out", check=False)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"dropuq: error: ground-truth file {gt}: line {line}: {self.MESSAGE}\n"
        )
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


class TestPipedInput:
    """A file read from a pipe reads as the same file read by path. A records
    file is parsed a second time from the same text when calibration's block
    pass cannot take it; sample sets and ground truth are read once."""

    def test_eval_ground_truth(self, pipeline_dirs, tmp_path):
        # A class beyond 64 bits, on a line of another image, which json reads whole.
        gt = (pipeline_dirs / "synth" / "scene0_gt.jsonl").read_text() + json.dumps(
            {"image_id": "other", "bbox": [0, 0, 10, 10], "class_id": 2**64}
        ) + "\n"
        path = tmp_path / "gt.jsonl"
        path.write_text(gt)
        samples = pipeline_dirs / "synth" / "scene0_samples.jsonl"
        clusters = pipeline_dirs / "clusters" / "scene0_clusters.json"
        results = [
            run_cli("eval", samples, "--clusters", clusters, "--gt", source,
                    "--out-dir", tmp_path / name, input=text)
            for name, source, text in (("path", path, None), ("pipe", "/dev/stdin", gt))
        ]
        assert results[0].stdout == results[1].stdout
        assert results[1].stdout == "mAP@0.5 (box): 1.0000\nmAP@0.5 (mask): 1.0000\n"
        assert (tmp_path / "path" / "eval.csv").read_bytes() == (
            tmp_path / "pipe" / "eval.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"logits": [0.0, NaN], "true_class": 1}\n',
             "line 1: logits must be finite, got [0.0, nan]"),
            ('\n{"logits": [0.0, 1.0], "true_class": 1.0}\n',
             "line 2: true_class must be a JSON integer, got 1.0"),
            pytest.param(
                '{"logits": [0.0, 1.0, 2.0], "true_class": 1}\n' * 4096
                + '{"logits": [0.0, 1.0, 2.0, 3.0], "true_class": 1}\n' * 10,
                "line 4097: 4 logits, but line 1 has 3", id="width change at a block boundary",
            ),
        ],
    )
    def test_calibrate_error(self, tmp_path, text, message):
        r = run_cli("calibrate", "/dev/stdin", "--out-dir", tmp_path / "cal", check=False,
                    input=text)
        assert (r.returncode, r.stderr) == (
            2, f"dropuq: error: records file /dev/stdin: {message}\n"
        )

    @pytest.mark.parametrize("fault", [None, "nan score"])
    def test_cluster(self, tmp_path, fault):
        # Values json reads and orjson would not: 2**64 and NaN, read once from the pipe.
        lines = serialize_sample_set(
            generate(separated_scene(0, 2, n_repetitions=10))[0]
        ).splitlines()
        if fault is None:
            lines[0] = json.dumps({**json.loads(lines[0]), "n_repetitions": 2**64})
        else:
            det = json.loads(lines[3])
            lines[3] = json.dumps({**det, "scores": [float("nan"), *det["scores"][1:]]})
        text = "\n".join(lines) + "\n"
        path = tmp_path / "samples.jsonl"
        path.write_text(text)
        by_path = run_cli("cluster", path, "--out-dir", tmp_path / "path", check=False)
        piped = run_cli("cluster", "/dev/stdin", "--out-dir", tmp_path / "pipe", check=False,
                        input=text)
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            by_path.returncode, by_path.stdout, by_path.stderr.replace(str(path), "/dev/stdin")
        )
        clusters = [
            {p.name: p.read_bytes() for p in (tmp_path / name).glob("*_clusters.json")}
            for name in ("path", "pipe")
        ]
        assert clusters[0] == clusters[1]
        if fault is None:
            assert (piped.returncode, list(clusters[1])) == (0, ["scene0_clusters.json"])
        else:
            assert (piped.returncode, clusters[1]) == (2, {})
            assert piped.stderr.startswith(
                "dropuq: error: samples file /dev/stdin: line 4: scores must lie in [0, 1], "
                "got (nan, "
            )

    def test_calibrate(self, tmp_path):
        text = serialize_calibration_records(generate_calibration_records(5000, 2.0, 3, seed=2))
        path = tmp_path / "records.jsonl"
        path.write_text(text)
        by_path = run_cli("calibrate", path, "--out-dir", tmp_path / "path")
        piped = run_cli("calibrate", "/dev/stdin", "--out-dir", tmp_path / "pipe", input=text)
        assert piped.stdout == by_path.stdout
        for name in ("temperature.json", "reliability_before.csv", "reliability_after.csv"):
            piped_bytes = (tmp_path / "pipe" / name).read_bytes()
            assert piped_bytes == (tmp_path / "path" / name).read_bytes(), name


# Each subcommand's arguments in order: (name, default, required).
EXPECTED_ARGUMENTS = {
    "synth": [("spec", None, True), ("--out-dir", None, True), ("--seed", None, False)],
    "cluster": [
        ("samples", None, True),
        ("--seed", 0, False),
        ("--jobs", 1, False),
        ("--out-dir", None, True),
        ("--algorithm", "bgm", False),
        ("--split-threshold", None, False),
        ("--background-threshold", 0.45, False),
    ],
    "report": [
        ("samples", None, True),
        ("--clusters", None, True),
        ("--out-dir", None, True),
        ("--mask-threshold", 0.5, False),
    ],
    "calibrate": [("records", None, True), ("--out-dir", None, True), ("--bins", 10, False)],
    "eval": [
        ("samples", None, True),
        ("--clusters", None, True),
        ("--gt", None, True),
        ("--mode", "both", False),
        ("--out-dir", None, True),
        ("--mask-threshold", 0.5, False),
    ],
}


def test_subcommand_arguments_pinned():
    (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(EXPECTED_ARGUMENTS)
    for command, expected in EXPECTED_ARGUMENTS.items():
        got = [
            (a.option_strings[-1] if a.option_strings else a.dest, a.default, a.required)
            for a in sub.choices[command]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert got == expected, command
