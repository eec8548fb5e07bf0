import io
import json

import pytest

from dropuq.calibration import parse_calibration_records
from dropuq.evaluation import parse_ground_truth

from dropuq.ingest import (
    ParseError,
    filter_background,
    parse_sample_set,
    serialize_sample_set,
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
        s = parse_sample_set(HEADER)
        assert s.image_id == "img0"
        assert len(s.detections) == 0

    def test_minimal_three_repetitions(self):
        text = "\n".join([HEADER, det_line(0), det_line(1), det_line(2)])
        s = parse_sample_set(text)
        assert len(s.detections) == 3
        assert [d.repetition for d in s.detections] == [0, 1, 2]

    def test_sorted_by_repetition(self):
        text = "\n".join([HEADER, det_line(2), det_line(0), det_line(1)])
        s = parse_sample_set(text)
        assert [d.repetition for d in s.detections] == [0, 1, 2]

    def test_bad_rle_names_line(self):
        text = "\n".join([HEADER, det_line(0), det_line(1, mask_runs=[599])])
        with pytest.raises(ParseError, match="line 3") as err:
            parse_sample_set(text)
        assert err.value.line_number == 3

    def test_wrong_score_length(self):
        text = "\n".join([HEADER, det_line(scores=(0.5, 0.5))])
        with pytest.raises(ParseError, match="line 2"):
            parse_sample_set(text)

    def test_repetition_out_of_range(self):
        text = "\n".join([HEADER, det_line(rep=3)])
        with pytest.raises(ParseError, match="out of range"):
            parse_sample_set(text)

    def test_unknown_field_rejected(self):
        rec = json.loads(det_line())
        rec["extra"] = 1
        with pytest.raises(ParseError, match="fields"):
            parse_sample_set("\n".join([HEADER, json.dumps(rec)]))

    def test_field_order_enforced(self):
        rec = {"bbox": [1, 2, 5, 6], "repetition": 0, "scores": [0.1, 0.6, 0.3]}
        with pytest.raises(ParseError):
            parse_sample_set("\n".join([HEADER, json.dumps(rec)]))

    def test_invalid_json_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sample_set("\n".join([HEADER, "{not json"]))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_sample_set("")

    def test_clamping(self):
        text = "\n".join([HEADER, det_line(bbox=(-3, -2, 35, 19))])
        s = parse_sample_set(text)
        assert s.detections[0].bbox.as_tuple() == (0.0, 0.0, 30.0, 19.0)

    def test_box_outside_image_rejected(self):
        text = "\n".join([HEADER, det_line(bbox=(40, 25, 50, 28))])
        with pytest.raises(ParseError, match="line 2"):
            parse_sample_set(text)

    def test_round_trip(self):
        text = "\n".join(
            [
                HEADER,
                det_line(0, (1.25, 2.5, 5.125, 6.75), (0.2, 0.5, 0.3), [100, 7, 493]),
                det_line(1),
                det_line(2, mask_runs=[0, 600]),
            ]
        )
        s1 = parse_sample_set(text)
        s2 = parse_sample_set(serialize_sample_set(s1))
        assert s1 == s2
        assert serialize_sample_set(s1) == serialize_sample_set(s2)


def sample_with_backgrounds(bgs):
    lines = [HEADER]
    for i, bg in enumerate(bgs):
        rest = round(1.0 - bg, 12)
        lines.append(det_line(rep=0, scores=(bg, rest * 0.7, rest * 0.3)))
    return parse_sample_set("\n".join(lines))


class TestStrictTypes:
    """Values must have their JSON type: no coercion of strings, reals or booleans."""

    def parse(self, header=None, **fields):
        rec = {"repetition": 0, "bbox": [1, 2, 5, 6], "scores": [0.1, 0.6, 0.3], **fields}
        return parse_sample_set("\n".join([header or HEADER, det_line(), "", json.dumps(rec)]))

    def test_integers_are_numbers(self):
        s = parse_sample_set("\n".join([HEADER, det_line(bbox=(1, 2, 5, 6), scores=(0, 1, 0))]))
        det = s.detections[0]
        assert det.bbox.as_tuple() == (1.0, 2.0, 5.0, 6.0)
        assert all(type(v) is float for v in det.bbox.as_tuple() + det.scores.scores)

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
            ("bbox", [1, 2, 10**400, 6], "int too large"),
            ("scores", [0.1, 0.6, "0.3"], "scores must be a list of JSON numbers"),
            ("scores", [0.1, 0.6, None], "scores must be a list of JSON numbers"),
            ("scores", [0.1, 0.6, 10**400], "int too large"),
            ("mask_runs", [0, 300.5, 299.5], "mask_runs must be a list of JSON integers"),
            ("mask_runs", [0, True, 599], "mask_runs must be a list of JSON integers"),
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
            parse_ground_truth(text, 20, 30)


class TestFilterBackground:
    def test_all_zero_background_unchanged(self):
        s = sample_with_backgrounds([0.0, 0.0, 0.0])
        out = filter_background(s)
        assert out.detections == s.detections

    def test_paper_threshold(self):
        s = sample_with_backgrounds([0.46])
        assert len(filter_background(s).detections) == 0

    def test_equal_to_threshold_kept(self):
        s = sample_with_backgrounds([0.45])
        assert len(filter_background(s).detections) == 1

    def test_mixed_counts(self):
        bgs = [0.1, 0.5, 0.2, 0.46, 0.3, 0.0, 0.44, 0.9, 0.45, 0.12]
        s = sample_with_backgrounds(bgs)
        out = filter_background(s)
        # direct scan oracle
        expect = sum(1 for b in bgs if b <= 0.45)
        assert expect == 7
        assert len(out.detections) == expect

    def test_idempotent(self):
        s = sample_with_backgrounds([0.1, 0.5, 0.2, 0.46, 0.3])
        once = filter_background(s)
        twice = filter_background(once)
        assert once == twice

    def test_survivors_untouched_and_ordered(self):
        s = sample_with_backgrounds([0.1, 0.5, 0.2])
        out = filter_background(s)
        assert out.detections == (s.detections[0], s.detections[2])

    def test_custom_threshold(self):
        s = sample_with_backgrounds([0.1, 0.3])
        out = filter_background(s, 0.2)
        assert len(out.detections) == 1

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        s = sample_with_backgrounds([0.1, 0.3])
        with pytest.raises(ValueError, match="background threshold"):
            filter_background(s, threshold)



# Each format: parser, lines before the records, a valid record, and the
# same record with its fields out of order.
FORMATS = {
    "samples": (
        parse_sample_set,
        [HEADER],
        det_line(),
        json.dumps({"bbox": [1, 2, 5, 6], "repetition": 0, "scores": [0.1, 0.6, 0.3]}),
    ),
    "calibration": (
        parse_calibration_records,
        [],
        json.dumps({"logits": [0.0, 1.5], "true_class": 1}),
        json.dumps({"true_class": 1, "logits": [0.0, 1.5]}),
    ),
    "ground_truth": (
        lambda stream: parse_ground_truth(stream, 20, 30),
        [],
        json.dumps({"image_id": "img0", "bbox": [1, 2, 5, 6], "class_id": 1}),
        json.dumps({"bbox": [1, 2, 5, 6], "image_id": "img0", "class_id": 1}),
    ),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("as_file", [False, True])
class TestJsonlReader:
    def parse(self, fmt, lines, as_file):
        text = "\n".join(FORMATS[fmt][1] + lines) + "\n"
        return FORMATS[fmt][0](io.StringIO(text) if as_file else text)

    def test_blank_lines_are_skipped(self, fmt, as_file):
        good = FORMATS[fmt][2]
        spaced = self.parse(fmt, ["", good, "   ", good, ""], as_file)
        assert spaced == self.parse(fmt, [good, good], as_file)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("[1, 2]", "record must be a JSON object"),
            ("{not json", "invalid JSON"),
            (None, "fields"),  # the valid record with its fields out of order
        ],
    )
    def test_error_names_original_line(self, fmt, as_file, bad, message):
        head, good, reordered = FORMATS[fmt][1:]
        lines = ["", good, "", "  ", bad if bad is not None else reordered]
        lineno = len(head) + len(lines)
        with pytest.raises(ParseError, match=f"^line {lineno}: {message}") as err:
            self.parse(fmt, lines, as_file)
        assert err.value.line_number == lineno
