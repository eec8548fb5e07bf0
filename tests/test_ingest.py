import collections
import gc
import json
import tracemalloc

import numpy as np
import pytest

from _files import read_text
from _scenes import separated_scene
from dropuq.calibration import (
    _TEXT_BLOCK_ROWS, CalibrationSet, _calibration_set, read_calibration_records,
    serialize_calibration_records,
)
from dropuq.evaluation import GroundTruthInstance, _ground_truth, read_ground_truth
from dropuq.ingest import (
    ParseError,
    _sample_set,
    filter_background,
    read_sample_set,
    serialize_sample_set,
)
from dropuq.model import SampleSet
from dropuq.synth import (
    InstanceSpec, generate, generate_calibration_records, scene_spec_to_json,
)

HEADER = json.dumps(
    {"image_id": "img0", "height": 20, "width": 30, "n_repetitions": 3, "num_classes": 2}
)


def det_line(rep=0, bbox=(1, 2, 5, 6), scores=(0.1, 0.6, 0.3), mask_runs=None):
    rec = {"repetition": rep, "bbox": list(bbox), "scores": list(scores)}
    if mask_runs is not None:
        rec["mask_runs"] = list(mask_runs)
    return json.dumps(rec)


class TestParse:
    def test_header_only(self):
        s = read_text(read_sample_set, HEADER)
        assert s.image_id == "img0"
        assert len(s) == 0

    def test_header_only_round_trip_keeps_class_count(self):
        s = read_text(read_sample_set, HEADER)
        assert s.scores.shape == (0, 3) and s.boxes.shape == (0, 4)
        assert serialize_sample_set(s) == HEADER + "\n"
        assert read_text(read_sample_set, serialize_sample_set(s)) == s

    def test_minimal_three_repetitions(self):
        text = "\n".join([HEADER, det_line(0), det_line(1), det_line(2)])
        s = read_text(read_sample_set, text)
        assert len(s) == 3
        assert s.repetition.tolist() == [0, 1, 2]

    def test_sorted_by_repetition(self):
        text = "\n".join([HEADER, det_line(2), det_line(0), det_line(1)])
        s = read_text(read_sample_set, text)
        assert s.repetition.tolist() == [0, 1, 2]

    def test_bad_rle_names_line(self):
        text = "\n".join([HEADER, det_line(0), det_line(1, mask_runs=[599])])
        with pytest.raises(ParseError, match="line 3") as err:
            read_text(read_sample_set, text)
        assert err.value.line_number == 3

    def test_empty_mask_runs_rejected(self):
        text = "\n".join([HEADER, det_line(0), det_line(1, mask_runs=[])])
        with pytest.raises(ParseError, match=r"^line 3: runs sum to 0, expected 600$"):
            read_text(read_sample_set, text)

    def test_wrong_score_length(self):
        text = "\n".join([HEADER, det_line(scores=(0.5, 0.5))])
        with pytest.raises(ParseError, match="line 2"):
            read_text(read_sample_set, text)

    def test_repetition_out_of_range(self):
        text = "\n".join([HEADER, det_line(rep=3)])
        with pytest.raises(ParseError, match="out of range"):
            read_text(read_sample_set, text)

    def test_unknown_field_rejected(self):
        rec = json.loads(det_line())
        rec["extra"] = 1
        with pytest.raises(ParseError, match="fields"):
            read_text(read_sample_set, "\n".join([HEADER, json.dumps(rec)]))

    def test_field_order_enforced(self):
        rec = {"bbox": [1, 2, 5, 6], "repetition": 0, "scores": [0.1, 0.6, 0.3]}
        with pytest.raises(ParseError):
            read_text(read_sample_set, "\n".join([HEADER, json.dumps(rec)]))

    def test_invalid_json_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            read_text(read_sample_set, "\n".join([HEADER, "{not json"]))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            read_text(read_sample_set, "")

    def test_clamping(self):
        text = "\n".join([HEADER, det_line(bbox=(-3, -2, 35, 19))])
        s = read_text(read_sample_set, text)
        assert s.boxes.tolist() == [[0.0, 0.0, 30.0, 19.0]]

    def test_box_outside_image_rejected(self):
        text = "\n".join([HEADER, det_line(bbox=(40, 25, 50, 28))])
        with pytest.raises(ParseError, match="line 2"):
            read_text(read_sample_set, text)

    def test_round_trip(self):
        text = "\n".join(
            [
                HEADER,
                det_line(0, (1.25, 2.5, 5.125, 6.75), (0.2, 0.5, 0.3), [100, 7, 493]),
                det_line(1),
                det_line(2, mask_runs=[0, 600]),
            ]
        )
        s1 = read_text(read_sample_set, text)
        s2 = read_text(read_sample_set, serialize_sample_set(s1))
        assert s1 == s2
        assert serialize_sample_set(s1) == serialize_sample_set(s2)


def sample_with_backgrounds(bgs):
    lines = [HEADER]
    for i, bg in enumerate(bgs):
        rest = round(1.0 - bg, 12)
        lines.append(det_line(rep=0, scores=(bg, rest * 0.7, rest * 0.3)))
    return read_text(read_sample_set, "\n".join(lines))


class TestHeaderDims:
    """Image dims are checked on the header line, before any detection."""

    @pytest.mark.parametrize(
        "dims, message",
        [
            ({"height": -5}, "height must be >= 1, got -5"),
            ({"width": 0}, "width must be >= 1, got 0"),
            ({"height": -9, "width": -10}, "height must be >= 1, got -9"),
            ({"width": -(2**63) - 1}, "width must be >= 1, got -9223372036854775809"),
        ],
    )
    def test_bad_dims_name_the_header(self, tmp_path, dims, message):
        text = "\n".join([json.dumps({**json.loads(HEADER), **dims}), det_line()]) + "\n"
        path = tmp_path / "samples.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            read_sample_set(path)


class TestStrictTypes:
    """Values must have their JSON type: no coercion of strings, reals or booleans."""

    def parse(self, header=None, **fields):
        rec = {"repetition": 0, "bbox": [1, 2, 5, 6], "scores": [0.1, 0.6, 0.3], **fields}
        return read_text(read_sample_set, "\n".join([header or HEADER, det_line(), "", json.dumps(rec)]))

    def test_integers_are_numbers(self):
        s = read_text(read_sample_set, "\n".join([HEADER, det_line(bbox=(1, 2, 5, 6), scores=(0, 1, 0))]))
        assert s.boxes.tolist() == [[1.0, 2.0, 5.0, 6.0]] and s.scores.tolist() == [[0, 1, 0]]
        assert s.boxes.dtype == s.scores.dtype == np.float64

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("image_id", 5, "image_id must be a JSON string"),
            ("height", 10.9, "height must be a JSON integer"),
            ("width", "10", "width must be a JSON integer"),
            ("n_repetitions", 3.0, "n_repetitions must be a JSON integer"),
            ("num_classes", True, "num_classes must be a JSON integer"),
        ],
    )
    def test_bad_header_value(self, key, value, message):
        header = json.dumps({**json.loads(HEADER), key: value})
        with pytest.raises(ParseError, match=f"^line 1: {message}"):
            self.parse(header)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("repetition", 1.7, "repetition must be a JSON integer"),
            ("repetition", True, "repetition must be a JSON integer"),
            ("repetition", "1", "repetition must be a JSON integer"),
            ("bbox", [1, 2, "5", 6], "bbox must be a list of JSON numbers, got '5'"),
            ("bbox", [1, 2, True, 6], "bbox must be a list of JSON numbers, got True"),
            ("bbox", "1 2 5 6", "bbox must be a list"),
            ("bbox", [1, 2, 10**400, 6], r"box coordinates must be finite, got \(1.0, 2.0, inf, 6.0\)"),
            ("scores", [0.1, 0.6, "0.3"], "scores must be a list of JSON numbers"),
            ("scores", [0.1, 0.6, None], "scores must be a list of JSON numbers"),
            ("scores", [0.1, 0.6, 10**400], r"scores must lie in \[0, 1\], got \(0.1, 0.6, inf\)"),
            ("mask_runs", [0, 300.5, 299.5], "mask_runs must be a list of JSON integers"),
            ("mask_runs", [0, True, 599], "mask_runs must be a list of JSON integers"),
            ("mask_runs", None, "mask_runs must be a list, got None"),
        ],
    )
    def test_bad_detection_value(self, key, value, message):
        with pytest.raises(ParseError, match=f"^line 4: {message}") as err:
            self.parse(**{key: value})
        assert err.value.line_number == 4

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("image_id", 5, "image_id must be a JSON string"),
            ("class_id", 1.9, "class_id must be a JSON integer"),
            ("class_id", True, "class_id must be a JSON integer"),
            ("class_id", "1", "class_id must be a JSON integer"),
            ("bbox", [0, 0, "5", 5], "bbox must be a list of JSON numbers"),
            ("bbox", [0, 0, 5], "bbox needs 4 values, got 3"),
            ("mask_runs", [0, 300.5, 299.5], "mask_runs must be a list of JSON integers"),
        ],
    )
    def test_bad_ground_truth_value(self, key, value, message):
        good = {"image_id": "img0", "bbox": [1, 2, 5, 6], "class_id": 1}
        text = json.dumps(good) + "\n\n" + json.dumps({**good, key: value})
        with pytest.raises(ParseError, match=f"^line 3: .*{message}"):
            read_text(read_ground_truth, text, "img0", 20, 30)


# A number beyond the double range, as JSON text and as a Python value, and
# the float it reads as.
BEYOND_DOUBLE = pytest.mark.parametrize(
    "text, value, inf",
    [("1" + "0" * 400, 10**400, "inf"), ("-1" + "0" * 400, -(10**400), "-inf"),
     ("1e400", 1e400, "inf")],
    ids=["10**400", "-10**400", "1e400"],
)
BOX_MESSAGE = "box coordinates must be finite, got (1.0, 2.0, {inf}, 6.0)"


class TestBeyondTheDoubleRange:
    """A number beyond the double range reads as ±inf at every entry point,
    and then meets its field's finite or range rule."""

    ENTRY_POINTS = {
        "samples-bbox": (
            lambda text, value: read_text(
                read_sample_set, f"{HEADER}\n" + det_line(bbox=(1, 2, "V", 6)).replace('"V"', text)
            ),
            "line 2: " + BOX_MESSAGE,
        ),
        "samples-scores": (
            lambda text, value: read_text(
                read_sample_set, f"{HEADER}\n" + det_line(scores=(0.1, 0.6, "V")).replace('"V"', text)
            ),
            "line 2: scores must lie in [0, 1], got (0.1, 0.6, {inf})",
        ),
        "ground-truth-bbox": (
            lambda text, value: read_text(
                read_ground_truth,
                f'{{"image_id": "img0", "bbox": [1, 2, {text}, 6], "class_id": 1}}\n',
                "img0", 20, 30,
            ),
            "line 1: " + BOX_MESSAGE,
        ),
        "records-logits": (
            lambda text, value: read_text(
                read_calibration_records, f'{{"logits": [0.5, {text}], "true_class": 1}}\n'
            ),
            "line 1: logits must be finite, got [0.5, {inf}]",
        ),
        "SampleSet": (
            lambda text, value: SampleSet(
                "img", 10, 10, 1, [[1, 2, value, 6]], [[0.5, 0.5]], [0], [None]
            ),
            "detection 0: " + BOX_MESSAGE,
        ),
        "GroundTruthInstance": (
            lambda text, value: GroundTruthInstance("img", (1, 2, value, 6), 1),
            BOX_MESSAGE,
        ),
        "InstanceSpec-box": (lambda text, value: InstanceSpec((1, 2, value, 6), 1), BOX_MESSAGE),
        "InstanceSpec-jitter": (
            lambda text, value: InstanceSpec((1, 2, 5, 6), 1, box_jitter_sigma=value),
            "box_jitter_sigma must be in [0, inf), got {inf}",
        ),
    }

    @BEYOND_DOUBLE
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_reads_as_infinity(self, entry, text, value, inf):
        build, message = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as err:  # ParseError and RowError are ValueErrors
            build(text, value)
        assert str(err.value) == message.format(inf=inf)

    @BEYOND_DOUBLE
    @pytest.mark.parametrize(
        "field, message",
        [("box", "box coordinates must be finite, got (1.0, 2.0, {inf}, 6.0)"),
         ("miss_rate", "miss_rate must be in [0, 1], got {inf}")],
        ids=["box", "miss_rate"],
    )
    def test_scene_spec(self, tmp_path, capsys, field, message, text, value, inf):
        from dropuq.cli import main

        doc = json.loads(scene_spec_to_json(separated_scene(0, 1)))
        doc["instances"][0][field] = [1, 2, "V", 6] if field == "box" else "V"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc).replace('"V"', text))
        assert main(["synth", str(spec), "--out-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == (
            f"dropuq: error: scene spec {spec}: {message.format(inf=inf)}\n"
        )


class TestFilterBackground:
    def test_all_zero_background_unchanged(self):
        s = sample_with_backgrounds([0.0, 0.0, 0.0])
        out = filter_background(s)
        assert out == s

    def test_paper_threshold(self):
        s = sample_with_backgrounds([0.46])
        assert len(filter_background(s)) == 0

    def test_equal_to_threshold_kept(self):
        s = sample_with_backgrounds([0.45])
        assert len(filter_background(s)) == 1

    def test_mixed_counts(self):
        bgs = [0.1, 0.5, 0.2, 0.46, 0.3, 0.0, 0.44, 0.9, 0.45, 0.12]
        s = sample_with_backgrounds(bgs)
        out = filter_background(s)
        # direct scan oracle
        expect = sum(1 for b in bgs if b <= 0.45)
        assert expect == 7
        assert len(out) == expect

    def test_idempotent(self):
        s = sample_with_backgrounds([0.1, 0.5, 0.2, 0.46, 0.3])
        once = filter_background(s)
        twice = filter_background(once)
        assert once == twice

    def test_survivors_untouched_and_ordered(self):
        s = sample_with_backgrounds([0.1, 0.5, 0.2])
        out = filter_background(s)
        assert out == s.take([0, 2])

    def test_custom_threshold(self):
        s = sample_with_backgrounds([0.1, 0.3])
        out = filter_background(s, 0.2)
        assert len(out) == 1

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        s = sample_with_backgrounds([0.1, 0.3])
        with pytest.raises(ValueError, match="background threshold"):
            filter_background(s, threshold)



# Each format: reader, lines before the records, a valid record, and the
# same record with its fields out of order.
FORMATS = {
    "samples": (
        read_sample_set,
        [HEADER],
        det_line(),
        json.dumps({"bbox": [1, 2, 5, 6], "repetition": 0, "scores": [0.1, 0.6, 0.3]}),
    ),
    "calibration": (
        read_calibration_records,
        [],
        json.dumps({"logits": [0.0, 1.5], "true_class": 1}),
        json.dumps({"true_class": 1, "logits": [0.0, 1.5]}),
    ),
    "ground_truth": (
        lambda path: read_ground_truth(path, "img0", 20, 30),
        [],
        json.dumps({"image_id": "img0", "bbox": [1, 2, 5, 6], "class_id": 1}),
        json.dumps({"bbox": [1, 2, 5, 6], "image_id": "img0", "class_id": 1}),
    ),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestJsonlReader:
    def parse(self, fmt, lines):
        text = "\n".join(FORMATS[fmt][1] + lines) + "\n"
        return read_text(FORMATS[fmt][0], text)

    def test_blank_lines_are_skipped(self, fmt):
        good = FORMATS[fmt][2]
        spaced = self.parse(fmt, ["", good, "   ", good, ""])
        assert spaced == self.parse(fmt, [good, good])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("[1, 2]", "record must be a JSON object"),
            ("{not json", "invalid JSON"),
            (None, "fields"),  # the valid record with its fields out of order
        ],
    )
    def test_error_names_original_line(self, fmt, bad, message):
        head, good, reordered = FORMATS[fmt][1:]
        lines = ["", good, "", "  ", bad if bad is not None else reordered]
        lineno = len(head) + len(lines)
        with pytest.raises(ParseError, match=f"^line {lineno}: {message}") as err:
            self.parse(fmt, lines)
        assert err.value.line_number == lineno


# Values that the two decoders read differently or not at all, and values
# near the edges of the integer and double ranges.
TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400,
    "100000000000000000000", "-9223372036854775809", "-9223372036854775808",
    "18446744073709551616", "18446744073709551615", "9223372036854775807",
    "-0", "-0.0", "0", "1", "2", "3", "-1", "1.0", "0.5", "1e-400", "5e-324",
    "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623159e308",
    "0.1000000000000000055511151231257827021181583404541015625", "1" * 40 + ".5",
    "true", "false", "null", '"x"', '"\\udfff"', '"\\ud800\\udc00"', '"\\ud800x"',
    "[]", "{}", "[1, 2]", "[[1]]",
]
_RAW = '"\\u0000raw"'  # json.dumps of the placeholder a token replaces
_JSON_CHARS = '{}[],:"\\ 0eE.-'


def _random_number(rng):
    kind = rng.integers(4)
    if kind == 0:
        return int(rng.integers(-5, 40))
    if kind == 1:
        return float(rng.uniform(-5.0, 40.0))
    if kind == 2:
        return float(rng.integers(0, 30)) + 0.5
    return float(rng.integers(0, 2**64, size=1, dtype=np.uint64).view(np.float64)[0])


def _valid_record(fmt, rng):
    """One valid record of the format, as a dict (the samples header aside)."""
    runs = [[0, 600], [100, 7, 493], [599, 1]][rng.integers(3)]
    box = [int(rng.integers(0, 10)), float(rng.uniform(0, 10)), 15, float(rng.uniform(12, 20))]
    if fmt == "calibration":
        return {"logits": [_random_number(rng) for _ in range(3)],
                "true_class": int(rng.integers(3))}
    if fmt == "ground_truth":
        rec = {"image_id": f"img{rng.integers(3)}", "bbox": box,
               "class_id": int(rng.integers(1, 3))}
    else:
        a, b = rng.uniform(0, 0.5, size=2)
        rec = {"repetition": int(rng.integers(3)), "bbox": box,
               "scores": [float(a), float(b), 1.0 - float(a) - float(b)]}
    if rng.random() < 0.5:
        rec["mask_runs"] = list(runs)
    return rec


def _mutated(rec, rng):
    """rec as a JSON line with one field, list entry or character changed."""
    rec = dict(rec)
    kind = rng.integers(6)
    key = list(rec)[rng.integers(len(rec))]
    if kind <= 2:  # a value or a list entry becomes a raw token
        if type(rec[key]) is list and rec[key] and kind > 0:
            rec[key] = list(rec[key])
            rec[key][rng.integers(len(rec[key]))] = "\0raw"
        else:
            rec[key] = "\0raw"
        return json.dumps(rec).replace(_RAW, TOKENS[rng.integers(len(TOKENS))])
    if kind == 3:  # a field dropped, duplicated or added
        line = json.dumps(rec)
        return [json.dumps({k: v for k, v in rec.items() if k != key}),
                line[:-1] + f', "{key}": 1}}', line[:-1] + ', "x": 1}'][rng.integers(3)]
    line = json.dumps(rec)
    i = int(rng.integers(len(line)))
    if kind == 4:
        return line[:i] + line[i + 1:]
    return line[:i] + _JSON_CHARS[rng.integers(len(_JSON_CHARS))] + line[i:]


def _random_file(fmt, rng):
    records = [_valid_record(fmt, rng) for _ in range(rng.integers(0, 5))]
    lines = [json.dumps(r) for r in records]
    if fmt == "samples":
        header = {"image_id": "img0", "height": 20, "width": 30, "n_repetitions": 3,
                  "num_classes": 2}
        records.insert(0, header)
        lines.insert(0, json.dumps(header))
    if records and rng.random() < 0.8:
        i = int(rng.integers(len(records)))
        lines[i] = _mutated(records[i], rng)
    if rng.random() < 0.3:
        lines.insert(int(rng.integers(len(lines) + 1)), ["", "  ", "\t"][rng.integers(3)])
    return "\n".join(lines) + "\n"


def _outcome(parse, source):
    """What a parse returns or raises, with every float compared by its bits."""
    try:
        result = parse(source)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "error", type(exc).__name__, str(exc), getattr(exc, "line_number", None)
    if isinstance(result, CalibrationSet):
        return "ok", result.logits.shape, result.logits.tobytes(), result.true_class.tobytes()
    if isinstance(result, SampleSet):
        columns = (result.boxes, result.scores, result.repetition, result.mask_runs,
                   result.mask_offsets)
        return ("ok", result.image_id, result.height, result.width, result.n_repetitions,
                *((c.shape, c.tobytes()) for c in columns))
    return "ok", repr(result)


def _json_only(body, *args):
    """A reader that runs a format's per-line ``json`` body over the file:
    calibration's reference pass, or the whole reader of the other formats."""
    def read(path):
        with open(path, encoding="utf-8") as lines:
            return body(lines, *args)

    return read


REFERENCE = {
    "samples": _json_only(_sample_set),
    "calibration": _json_only(_calibration_set),
    "ground_truth": _json_only(_ground_truth, "img0", 20, 30),
}


def _block_record(fmt, i, rng):
    """Record i of a valid calibration or samples file: 3 logits, or a
    detection with a mask on every other line."""
    if fmt == "calibration":
        return json.dumps({"logits": rng.normal(size=3).tolist(), "true_class": i % 3})
    return det_line(i % 3, scores=(0.25, 0.5, 0.25), mask_runs=[100, 7, 493] if i % 2 else None)


# Faults in the second block of records, which every reader words as a json-only parse does.
BLOCK_FAULTS = {
    "calibration": {
        "bad width": '{"logits": [0.0, 1.5, 2.0, 3.0], "true_class": 1}',
        "boolean logit": '{"logits": [0.0, true, 2.0], "true_class": 1}',
        "extra key": '{"logits": [0.0, 1.5, 2.0], "true_class": 1, "x": 1}',
        "class beyond 64 bits": '{"logits": [0.0, 1.5, 2.0], "true_class": 18446744073709551616}',
        "class at 2**63": '{"logits": [0.0, 1.5, 2.0], "true_class": 9223372036854775808}',
    },
    "samples": {
        "bad width": det_line(scores=(0.1, 0.6, 0.2, 0.1)),
        "boolean score": det_line().replace("0.6", "true"),
        "extra key": det_line()[:-1] + ', "x": 1}',
        "repetition beyond 64 bits": det_line(rep=2**64),
        "mask run beyond 64 bits": det_line(mask_runs=[0, 2**64, 10]),
        "mask run at 2**63": det_line(mask_runs=[0, 2**63, 10]),
        "empty mask": det_line(mask_runs=[]),
        "null mask": det_line()[:-1] + ', "mask_runs": null}',
    },
}


def _no_json(*args, **kwargs):
    raise AssertionError("the json pass ran")


class TestDecoderRule:
    """Every parse equals a json-only parse. Sample sets and ground truth are
    read by json alone; calibration's orjson block pass decodes, and json
    decides."""

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_matches_json_only_parse(self, fmt, tmp_path):
        rng = np.random.default_rng(sorted(FORMATS).index(fmt))
        read, path = FORMATS[fmt][0], tmp_path / "records.jsonl"
        kinds = collections.Counter()
        for _ in range(600):
            path.write_text(_random_file(fmt, rng), encoding="utf-8")
            expected = _outcome(REFERENCE[fmt], path)
            assert _outcome(read, path) == expected, path.read_text(encoding="utf-8")
            kinds[expected[0]] += 1
        assert kinds["ok"] > 100 and kinds["error"] > 100, kinds

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_unterminated_string_has_one_message(self, fmt, newline, tmp_path):
        lines = FORMATS[fmt][1] + ['{"image_id": "img']
        path = tmp_path / "records.jsonl"
        path.write_text(newline.join(lines) + newline, encoding="utf-8")
        message = f"line {len(lines)}: invalid JSON (Unterminated string starting at)"
        assert _outcome(FORMATS[fmt][0], path) == ("error", "ParseError", message, len(lines))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_file_splits_only_at_line_ends(self, newline, tmp_path):
        # A JSON string may hold U+2028 and U+0085 raw; neither ends a line.
        gt = {"image_id": "a\u2028b\x85c", "bbox": [1, 2, 5, 6], "class_id": 1}
        text = newline.join(["", json.dumps(gt, ensure_ascii=False)] * 2) + newline
        path = tmp_path / "gt.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        got = read_ground_truth(path, gt["image_id"], 20, 30)
        assert [g.image_id for g in got] == [gt["image_id"]] * 2
        bad = text.replace("2, 5", "2, 1", 1)  # the second line's box gets no area
        path.write_text(bad, encoding="utf-8", newline="")
        with pytest.raises(ParseError, match="^line 2: "):
            read_ground_truth(path, gt["image_id"], 20, 30)

    @pytest.mark.parametrize(
        "header, detection, message",
        [
            ({"height": 2**64}, {}, "line 1: image of 18446744073709551616 x 30 pixels exceeds"),
            ({"width": 2**64}, {}, "line 1: image of 20 x 18446744073709551616 pixels exceeds"),
            ({"num_classes": 2**64}, {},
             "line 2: scores has 3 entries, expected 18446744073709551617 "
             r"\(k=18446744073709551616 classes"),
            ({"num_classes": -(2**63) - 1}, {},
             "line 1: num_classes must be >= 1, got -9223372036854775809"),
            ({"n_repetitions": -(2**63) - 1}, {},
             r"line 2: repetition 0 out of range \[0, -9223372036854775809\)"),
            ({}, {"repetition": 2**64},
             r"line 2: repetition 18446744073709551616 out of range \[0, 3\)"),
            ({}, {"repetition": -(2**63) - 1},
             r"line 2: repetition -9223372036854775809 out of range \[0, 3\)"),
            ({}, {"mask_runs": [0, 2**64, 10]},
             "line 2: runs sum to 18446744073709551626, expected 600"),
            ({}, {"mask_runs": [0, -(2**63) - 1, 10]}, "line 2: run lengths must be non-negative"),
        ],
    )
    def test_samples_integers_beyond_64_bits(self, header, detection, message):
        text = json.dumps({**json.loads(HEADER), **header}) + "\n" + json.dumps(
            {**json.loads(det_line()), **detection}
        )
        with pytest.raises(ParseError, match=f"^{message}"):
            read_text(read_sample_set, text)

    def test_samples_n_repetitions_beyond_64_bits(self):
        header = json.dumps({**json.loads(HEADER), "n_repetitions": 2**64})
        assert read_text(read_sample_set, header + "\n" + det_line()).n_repetitions == 2**64

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"class_id": -(2**63) - 1},
             "line 1: class_id must be a foreground class, got -9223372036854775809"),
            ({"class_id": 1, "mask_runs": [0, 2**64, 10]},
             "line 1: runs sum to 18446744073709551626, expected 600"),
            ({"class_id": 1, "mask_runs": [0, -(2**63) - 1, 10]},
             "line 1: run lengths must be non-negative"),
        ],
    )
    def test_ground_truth_integers_beyond_64_bits(self, fields, message):
        text = json.dumps({"image_id": "img0", "bbox": [1, 2, 5, 6], **fields})
        with pytest.raises(ParseError, match=f"^{message}"):
            read_text(read_ground_truth, text, "img0", 20, 30)

    def test_ground_truth_class_beyond_64_bits(self):
        text = json.dumps({"image_id": "img0", "bbox": [1, 2, 5, 6], "class_id": 2**64})
        assert read_text(read_ground_truth, text, "img0", 20, 30)[0].class_id == 2**64

    @pytest.mark.parametrize(
        "fmt, n, newline, blank_at, fault",
        [
            (fmt, n, "\n", None, None)
            for fmt in BLOCK_FAULTS for n in (4095, 4096, 4097, 8193)
        ] + [
            (fmt, 8193, newline, blank_at, None)
            for fmt in BLOCK_FAULTS for newline in ("\n", "\r\n")
            for blank_at in (None, 4095, 4096, 4097) if (newline, blank_at) != ("\n", None)
        ] + [
            (fmt, 8193, "\n", None, fault) for fmt in BLOCK_FAULTS for fault in BLOCK_FAULTS[fmt]
        ],
    )
    def test_block_boundaries(self, fmt, n, newline, blank_at, fault, tmp_path, monkeypatch):
        rng = np.random.default_rng(n)
        head = FORMATS[fmt][1]
        lines = head + [_block_record(fmt, i, rng) for i in range(n)]
        at = len(head) + _TEXT_BLOCK_ROWS + 7  # in the second block of records
        if fault is not None:
            lines[at] = BLOCK_FAULTS[fmt][fault]
        if blank_at is not None:  # a blank line after record blank_at - 1
            lines.insert(len(head) + blank_at, "  ")
        path = tmp_path / "records.jsonl"
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        expected = _outcome(REFERENCE[fmt], path)
        if fault is None:
            assert expected[0] == "ok", expected
            if fmt == "calibration":  # the orjson block pass takes a valid file alone
                monkeypatch.setattr(json, "loads", _no_json)
        else:
            assert expected[::3] == ("error", at + 1), expected
        assert _outcome(FORMATS[fmt][0], path) == expected

    def test_lone_surrogate_image_id(self, tmp_path):
        # json decodes the escape, but no file name, seed or message can hold it.
        header = json.dumps({**json.loads(HEADER), "image_id": "\udfff"})
        assert '"\\udfff"' in header
        message = r"^line 1: image_id must be Unicode text, got '\\udfff'$"
        with pytest.raises(ParseError, match=message):
            read_text(read_sample_set, header + "\n" + det_line())
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"image_id": "\udfff", "bbox": [1, 2, 5, 6], "class_id": 1}))
        with pytest.raises(ParseError, match=message):
            read_ground_truth(path, "\udfff", 20, 30)

    def test_calibration_width_change_at_a_block_boundary(self, tmp_path):
        # Each block holds one width; the second must be compared with the first.
        path = tmp_path / "records.jsonl"
        path.write_text("".join(
            json.dumps({"logits": [0.5] * width, "true_class": 1}) + "\n"
            for width in [3] * _TEXT_BLOCK_ROWS + [4] * 10
        ))
        line = _TEXT_BLOCK_ROWS + 1
        with pytest.raises(ParseError, match=f"^line {line}: 4 logits, but line 1 has 3$"):
            read_calibration_records(path)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, error",
    [('{"logits": [0.0, 1.5], "true_class": 1}\n', None), ("[]\n", ParseError), (None, OSError)],
)
def test_reader_leaves_the_gc_as_it_found_it(enabled, text, error, tmp_path):
    path = tmp_path / "records.jsonl"
    if text is not None:
        path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert len(read_calibration_records(path)) == 1
        else:
            with pytest.raises(error):
                read_calibration_records(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_calibration_reader_peak_is_close_to_its_columns(tmp_path):
    # 50 000 records of 10 logits: the columns take 4.4 MB.
    path = tmp_path / "records.jsonl"
    path.write_text(serialize_calibration_records(
        generate_calibration_records(50_000, 2.0, 9, seed=3)), encoding="utf-8")
    read_calibration_records(path)  # the decoder's first import is not the set's
    gc.collect()
    tracemalloc.start()
    try:
        read = read_calibration_records(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained >= read.logits.nbytes + read.true_class.nbytes == 50_000 * 88
    assert peak <= 4 * retained, peak / retained


def test_sample_set_retains_only_its_columns(tmp_path):
    # 16 box-only instances x 1024 repetitions: 16 384 detections, whose
    # columns take 80 bytes each (box, 4 scores, repetition, mask slot).
    s, _, _ = generate(separated_scene(0, 16, sigma=3.0, n_repetitions=1024))
    path = tmp_path / "samples.jsonl"
    path.write_text(serialize_sample_set(s), encoding="utf-8")
    read_sample_set(path)  # a first read's one-off imports are not the set's
    gc.collect()
    tracemalloc.start()
    try:
        read = read_sample_set(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(read) == 16 * 1024
    assert retained / len(read) <= 150, retained / len(read)


def test_mask_set_retains_its_runs_and_little_else(tmp_path):
    # 3 ellipse-mask instances x 100 repetitions of 480 x 640: each detection
    # holds about 200 runs, which are 8 bytes each in any int64 form.
    spec = separated_scene(3, 3, shape="ellipse", mask_noise=0.1, height=480, width=640)
    path = tmp_path / "samples.jsonl"
    path.write_text(serialize_sample_set(generate(spec)[0]), encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    run_bytes = 8 * sum(len(json.loads(line).get("mask_runs", [])) for line in lines)
    read_sample_set(path)
    gc.collect()
    tracemalloc.start()
    try:
        read = read_sample_set(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(read) == 300 and run_bytes > 300 * 1000
    assert (retained - run_bytes) / len(read) <= 150, (retained - run_bytes) / len(read)
    # 7.4x when each line's runs stayed Python lists until the end; 4.3x now
    # that each line's runs become an int64 array at once.
    assert peak <= 5 * retained, peak / retained
